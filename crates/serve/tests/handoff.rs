//! The handoff between submitters and shard workers: wake-ups are never
//! lost, whether the waiting side was spinning or parked, a synchronous
//! call returns only after every event queued ahead of it is published,
//! and a worker that died answers every later synchronous call with a
//! panic instead of leaving the caller waiting forever.

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_serve::{ServeConfig, ShardedIndex};
use acx_testkit::sorted;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned within `limit`: a lost wake-up hangs rather than fails.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            runner.join().expect("runner sent, then ended");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("no return within {limit:?}: hung"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("runner panicked"))
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
}

/// `call` must panic with "shard worker exited", and do so promptly.
fn assert_worker_exited(
    index: &Arc<ShardedIndex>,
    what: &str,
    call: impl FnOnce(&ShardedIndex) + Send + 'static,
) {
    let index = Arc::clone(index);
    let outcome = within(Duration::from_secs(2), move || {
        catch_unwind(AssertUnwindSafe(|| call(&index)))
    });
    let payload = outcome.expect_err(what);
    let message = panic_message(&*payload).unwrap_or_default();
    assert!(
        message.starts_with("shard worker exited"),
        "{what}: {message:?}"
    );
}

fn cube(lo: f32, side: f32) -> HyperRect {
    HyperRect::from_bounds(&[lo; 3], &[lo + side; 3]).unwrap()
}

/// A tier holding 15 objects, and an id routed to shard 0 that is not
/// resident (one of shard 0's own, removed again) with its rectangle.
fn tier_with_a_free_id_on_shard_zero(shards: usize) -> (Arc<ShardedIndex>, ObjectId, HyperRect) {
    let index =
        ShardedIndex::new(ServeConfig::new(IndexConfig::memory(3)).with_shards(shards)).unwrap();
    index
        .insert_all((0..16).map(|i| (ObjectId(i), cube(i as f32 / 20.0, 0.1))))
        .unwrap();
    let id = index
        .with_shard(0, |i: &mut AdaptiveClusterIndex| i.object_ids().next())
        .expect("shard 0 owns some of 16 ids");
    let rect = index.remove(id).unwrap();
    (Arc::new(index), id, rect)
}

#[test]
fn a_dead_worker_fails_later_calls_instead_of_hanging() {
    for shards in [1, 2] {
        let (index, id, rect) = within(Duration::from_secs(30), move || {
            tier_with_a_free_id_on_shard_zero(shards)
        });
        assert_worker_exited(&index, "the panicking call", |index| {
            index.with_shard(0, |_: &mut AdaptiveClusterIndex| panic!("injected failure"))
        });
        assert_worker_exited(&index, "with_shard after the panic", |index| {
            index.with_shard(0, |i: &mut AdaptiveClusterIndex| i.len());
        });
        assert_worker_exited(&index, "insert routed to the dead shard", move |index| {
            let _ = index.insert(id, rect);
        });
        assert_worker_exited(&index, "flush", |index| index.flush());
    }
}

/// Interleaves bursts of submits with synchronous calls. A worker runs
/// its whole queue as one batch, but publishes the batch's completions
/// before any closure in it runs: so once a synchronous call returns,
/// every event submitted before it is in `drain_results`. A call on one
/// shard vouches only for that shard's halves, so with several shards
/// `with_shard` is asked of every shard and `insert` is not checked.
fn sync_calls_see_earlier_events(shards: usize, cap: usize, seed: u64) {
    let index = ShardedIndex::new(
        ServeConfig::new(IndexConfig::memory(3))
            .with_shards(shards)
            .with_queue_cap(cap)
            .retaining_results(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut submitted = 0u64;
    let mut seen = 0u64;
    for (round, id) in (0..300u32).enumerate() {
        for _ in 0..rng.gen_range(0..2 * cap.min(8)) {
            let point: Vec<f32> = (0..3).map(|_| rng.gen_range(0.0f32..1.0)).collect();
            assert_eq!(index.submit(SpatialQuery::point_enclosing(point)), submitted);
            submitted += 1;
        }
        let vouches = match rng.gen_range(0..3u32) {
            0 => {
                index.insert(ObjectId(id), random_box(&mut rng)).unwrap();
                shards == 1
            }
            1 => {
                for shard in 0..shards {
                    index.with_shard(shard, |i: &mut AdaptiveClusterIndex| i.len());
                }
                true
            }
            _ => {
                index.flush();
                true
            }
        };
        if vouches {
            let results = index.drain_results();
            let seqs: Vec<u64> = results.iter().map(|r| r.seq).collect();
            assert_eq!(
                seqs,
                (seen..submitted).collect::<Vec<_>>(),
                "{shards} shards, cap {cap}, round {round}: events submitted \
                 before the call, and only those, completed"
            );
            seen = submitted;
        }
    }
}

#[test]
fn a_synchronous_call_sees_every_event_submitted_before_it() {
    for cap in [1, 2, 1024] {
        for shards in [1, 2] {
            within(Duration::from_secs(60), move || {
                sync_calls_see_earlier_events(shards, cap, 0xCA11 + cap as u64)
            });
        }
    }
}

/// Waits `ns` nanoseconds without leaving the core — a `sleep` this
/// short would last the timer slack (tens of microseconds) instead.
fn pause(ns: u64) {
    let started = Instant::now();
    while started.elapsed() < Duration::from_nanos(ns) {
        std::hint::spin_loop();
    }
}

/// Either side's idle time between handoffs: mostly a random pause
/// under 10 µs, the window in which the other side is still spinning;
/// now and then a real sleep of up to a few hundred microseconds,
/// long enough for the other side to park.
fn idle(rng: &mut StdRng) {
    if rng.gen_range(0..64u32) == 0 {
        std::thread::sleep(Duration::from_micros(rng.gen_range(0..400u64)));
    } else {
        pause(rng.gen_range(0..10_000u64));
    }
}

fn random_box(rng: &mut StdRng) -> HyperRect {
    let lo: Vec<f32> = (0..3).map(|_| rng.gen_range(0.0f32..0.7)).collect();
    let hi: Vec<f32> = lo.iter().map(|l| l + rng.gen_range(0.05f32..0.3)).collect();
    HyperRect::from_bounds(&lo, &hi).unwrap()
}

/// Blocking and non-blocking submits and synchronous mutations against
/// queues of capacity 2, with random idle time on the submitting side
/// and, through queued pauses, on the workers'. Every accepted event
/// must complete with the answer of a solo index fed the same accepted
/// stream, and `flush` must return. Returns the handoffs made (queue
/// publishes plus replies waited for).
fn stress(shards: usize, ops: usize, seed: u64) -> u64 {
    const IDS: u32 = 64;
    let index = ShardedIndex::new(
        ServeConfig::new(IndexConfig::memory(3))
            .with_shards(shards)
            .with_queue_cap(2)
            .retaining_results(),
    )
    .unwrap();
    let mut solo = AdaptiveClusterIndex::new(IndexConfig::memory(3)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expected = Vec::new();
    let mut refused = 0u64;
    let mut handoffs = 0u64;
    for _ in 0..ops {
        match rng.gen_range(0..10u32) {
            0..=4 => {
                let point: Vec<f32> = (0..3).map(|_| rng.gen_range(0.0f32..1.0)).collect();
                let query = SpatialQuery::point_enclosing(point);
                let accepted = if rng.gen_bool(0.5) {
                    Some(index.submit(query.clone()))
                } else {
                    index.try_submit(query.clone()).ok()
                };
                match accepted {
                    Some(seq) => {
                        expected.push((seq, sorted(solo.execute(&query).matches)));
                        handoffs += shards as u64;
                    }
                    None => refused += 1,
                }
            }
            5..=8 => {
                let id = ObjectId(rng.gen_range(0..IDS));
                if solo.contains(id) {
                    if rng.gen_bool(0.5) {
                        assert_eq!(index.remove(id).unwrap(), solo.remove(id).unwrap());
                    } else {
                        let rect = random_box(&mut rng);
                        let old = solo.update(id, rect.clone()).unwrap();
                        assert_eq!(index.update(id, rect).unwrap(), old);
                    }
                } else {
                    let rect = random_box(&mut rng);
                    solo.insert(id, rect.clone()).unwrap();
                    index.insert(id, rect).unwrap();
                }
                handoffs += 2;
            }
            _ => {
                let shard = rng.gen_range(0..shards);
                let ns = rng.gen_range(0..10_000u64);
                drop(index.with_shard_deferred(shard, move |_| pause(ns)));
                handoffs += 1;
            }
        }
        idle(&mut rng);
    }
    index.flush();
    handoffs += shards as u64 * 2;

    let results = index.drain_results();
    assert_eq!(
        results.len(),
        expected.len(),
        "every accepted event completes"
    );
    for (result, (seq, matches)) in results.iter().zip(&expected) {
        assert_eq!(result.seq, *seq);
        assert_eq!(
            &result.matches, matches,
            "event {seq}: union differs from solo"
        );
    }
    assert_eq!(index.object_ids(), sorted(solo.object_ids().collect()));
    let stats = index.stats();
    assert_eq!(stats.events_completed, expected.len() as u64);
    assert_eq!(stats.queue_full_rejections, refused);
    handoffs
}

#[test]
fn no_wakeup_is_lost_at_queue_cap_two() {
    for shards in [1, 2] {
        within(Duration::from_secs(120), move || {
            stress(shards, 3_000, 0x5EED + shards as u64)
        });
    }
}

#[test]
#[ignore = "long: over a million handoffs per shard count; run optimized"]
fn no_wakeup_is_lost_over_a_million_handoffs() {
    for shards in [1, 2] {
        let handoffs = within(Duration::from_secs(600), move || {
            stress(shards, 800_000, 0xB16 + shards as u64)
        });
        assert!(
            handoffs >= 1_000_000,
            "{shards} shards: {handoffs} handoffs"
        );
    }
}
