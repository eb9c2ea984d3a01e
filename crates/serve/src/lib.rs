//! # acx_serve — shard-per-core serving tier
//!
//! Turns the single-threaded [`AdaptiveClusterIndex`] into a service:
//! subscriptions are partitioned across N shards, each shard owns one
//! index behind a dedicated worker thread, and every arriving event is
//! fanned out to all shards through bounded ingestion queues. Because
//! the partition is disjoint and query answering is exact, the union of
//! the per-shard match sets **is** the answer. A subscription's shard is
//! `shard_of(id)`, a pure function of its id, so the tier keeps no id
//! table: every mutation and id-keyed read is a round trip to that
//! shard, whose index refuses a bad id or rectangle, and
//! `len`/`object_ids` are round trips to every shard.
//!
//! ## Why no statistics cross a shard
//!
//! Every statistic is per cluster or per candidate, and every cluster
//! belongs to one shard's index. A cluster's query probability divides
//! its counter by *that index's* query total, both counting every event
//! (each reaches every shard), and the benefit functions read nothing
//! else. So each shard's index is bit-identical to a solo index over its
//! partition fed the same events (`tests/equivalence.rs`); spreading one
//! clustering's *queries* over threads would instead need per-thread
//! statistics merged before every decision.
//!
//! ## Threading model
//!
//! One worker per shard owns that shard's index outright. Submitters
//! reach it only through the shard's bounded FIFO, so the index needs no
//! locks and runs exactly as a single index does, reorganization
//! included (inside `execute`, when the statistics epoch comes due). A
//! reorganizing shard stalls only itself: its queue absorbs arrivals up
//! to the cap while the other shards keep serving, which is what bounds
//! event-to-match latency during a pass.
//!
//! A worker serves a batch per wake-up: it takes everything queued under
//! one lock, which frees every slot and wakes parked submitters at most
//! once, and runs the batch in FIFO order. It publishes the batch's
//! completed events to the collector under one lock too, at the end of
//! the batch, and before any closure in it runs, so a synchronous call
//! sees every event queued ahead of it completed.
//!
//! A handoff between a submitter and a worker costs a cache line, not a
//! sleep. Each side notifies the other's condvar only when the other is
//! parked on it, so a publish to a busy or spinning worker makes no
//! syscall. A worker whose queue empties spins briefly on an atomic
//! depth hint before it parks: on a mutation-heavy stream the next
//! command is usually microseconds away. A synchronous call
//! ([`ShardedIndex::with_shard`], [`ShardedIndex::flush`], every
//! mutation and read) waits for its answer in a one-shot reply slot,
//! spinning the same way; a slot the worker drops unanswered (the
//! closure panicked, or the worker is gone) wakes the caller, which
//! panics with "shard worker exited". Spinning pays only when the
//! waiting thread has a core to itself, so the spin budget is zero when
//! `available_parallelism()`, read once at construction, is no more
//! than the shard count (the submitter needs a core too).
//!
//! ## Backpressure contract
//!
//! Fan-out is all-or-nothing: [`ShardedIndex::try_submit`] reserves a
//! slot on *every* shard before publishing to any of them, and rolls
//! the reservations back if one queue is full ([`SubmitError::QueueFull`]
//! — the event is on no shard, nothing is dropped or double-counted).
//! The blocking [`ShardedIndex::submit`] waits for capacity instead and
//! reports the stall in [`ServeStats`]. The cap bounds what is queued:
//! a batch the worker has taken holds no slot, so a shard holds up to
//! `queue_cap` queued commands plus the batch it is executing.
//!
//! ## Durability
//!
//! Each shard persists independently: [`ShardedIndex::attach_wal_dir`]
//! gives every shard its own log (`shard-<i>.wal`),
//! [`ShardedIndex::checkpoint_all`] writes `shard-<i>.ckpt`, and
//! [`ShardedIndex::recover`] replays each pair in isolation, the
//! partition being disjoint. A directory recovers only under the shard
//! count that wrote it; any other is refused before a file is opened.

mod partition;
mod queue;
mod stats;

pub use partition::ShardBy;
pub use stats::{ServeStats, ShardStats};

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acx_core::{AdaptiveClusterIndex, IndexConfig, IndexError, RecoveryReport};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::{FileBacking, FlushPolicy, StoreError, Wal};
use partition::shard_of;
use queue::{reply_slot, BoundedQueue, Reply};

/// Default per-shard ingestion queue capacity.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// How long a worker with an empty queue, or a caller waiting for a
/// reply, spins before it parks, when the host has a core to spare.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Configuration of a [`ShardedIndex`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Configuration every shard's inner index is built with.
    pub index: IndexConfig,
    /// Number of shards (one worker thread each).
    pub shards: usize,
    /// Subscription-to-shard assignment strategy ([`ShardBy::Hash`],
    /// the only one).
    pub shard_by: ShardBy,
    /// Per-shard ingestion queue capacity.
    pub queue_cap: usize,
    /// Whether completed [`EventResult`]s are retained for
    /// [`ShardedIndex::drain_results`] (off for fire-and-forget
    /// serving, on for tests and any caller that consumes matches).
    pub retain_results: bool,
}

impl ServeConfig {
    /// One shard, hash partitioning, default queue capacity, results
    /// not retained.
    pub fn new(index: IndexConfig) -> Self {
        Self {
            index,
            shards: 1,
            shard_by: ShardBy::Hash,
            queue_cap: DEFAULT_QUEUE_CAP,
            retain_results: false,
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the partitioning strategy.
    pub fn with_shard_by(mut self, shard_by: ShardBy) -> Self {
        self.shard_by = shard_by;
        self
    }

    /// Retains completed results for [`ShardedIndex::drain_results`].
    pub fn retaining_results(mut self) -> Self {
        self.retain_results = true;
        self
    }
}

/// Why a non-blocking submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// At least one shard's ingestion queue was at capacity; the
    /// fan-out was rolled back in full, so the event reached no shard.
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "ingestion queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One completed event: the union of every shard's matches, sorted by
/// object id (partitions are disjoint, so the order — and the set — is
/// independent of the shard count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventResult {
    /// Submission sequence number, as returned by `submit`/`try_submit`.
    pub seq: u64,
    /// Matching subscriptions across all shards, ascending by id.
    pub matches: Vec<ObjectId>,
}

enum Command {
    Event { seq: u64, query: Arc<SpatialQuery> },
    Apply(Box<dyn FnOnce(&mut AdaptiveClusterIndex) + Send>),
}

struct Pending {
    remaining: usize,
    matches: Vec<ObjectId>,
    submitted: Instant,
}

/// Joins the per-shard halves of each in-flight event.
struct Collector {
    pending: Mutex<HashMap<u64, Pending>>,
    completed: Mutex<Vec<EventResult>>,
    latencies: Mutex<Vec<u64>>,
    events_completed: AtomicU64,
    retain_results: bool,
}

impl Collector {
    fn register(&self, seq: u64, shards: usize) {
        let prev = self.pending.lock().expect("collector lock").insert(
            seq,
            Pending {
                remaining: shards,
                matches: Vec::new(),
                submitted: Instant::now(),
            },
        );
        debug_assert!(prev.is_none(), "sequence number reused");
    }

    /// Publishes one shard's halves of a batch of events, `(seq,
    /// matches)` in execution order, taking each collector lock once;
    /// leaves `halves` empty. An event is complete once its last half
    /// arrives. Lock order: `pending`, then `latencies`.
    fn complete_all(&self, halves: &mut Vec<(u64, Vec<ObjectId>)>) {
        if halves.is_empty() {
            return;
        }
        let published = Instant::now();
        // The completed events, compacted to the front of `halves`.
        let mut finished = 0;
        {
            let mut pending = self.pending.lock().expect("collector lock");
            let mut latencies = self.latencies.lock().expect("collector lock");
            for k in 0..halves.len() {
                let (seq, matches) = std::mem::take(&mut halves[k]);
                let entry = pending
                    .get_mut(&seq)
                    .expect("completion without registration");
                // Unretained, nobody reads the union: skip building it.
                if self.retain_results {
                    if entry.matches.is_empty() {
                        entry.matches = matches;
                    } else {
                        entry.matches.extend(matches);
                    }
                }
                entry.remaining -= 1;
                if entry.remaining == 0 {
                    let done = pending.remove(&seq).expect("entry present");
                    latencies.push(published.duration_since(done.submitted).as_nanos() as u64);
                    halves[finished] = (seq, done.matches);
                    finished += 1;
                }
            }
        }
        self.events_completed
            .fetch_add(finished as u64, Ordering::Relaxed);
        if self.retain_results {
            // Disjoint partitions make the union a plain concatenation;
            // sorting gives a deterministic, shard-count-independent order.
            let results = halves.drain(..finished).map(|(seq, mut matches)| {
                matches.sort_unstable();
                EventResult { seq, matches }
            });
            self.completed
                .lock()
                .expect("collector lock")
                .extend(results);
        }
        halves.clear();
    }
}

/// State shared between submitters and one shard worker.
struct ShardShared {
    queue: BoundedQueue<Command>,
    /// Events this shard executed in the current window.
    events: AtomicU64,
    /// `hist[d]` = publishes that observed queue depth `d` (`0..=cap`).
    depth_hist: Vec<AtomicU64>,
}

/// Closes a shard's queue when its worker exits, however it exits, and
/// drops what is left in it: a command stranded behind a panic then
/// drops its reply slot, which wakes the caller, instead of waiting for
/// a worker that is gone.
struct CloseOnExit<'a>(&'a BoundedQueue<Command>);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.close();
        let mut rest = VecDeque::new();
        while self.0.pop_all(&mut rest) {
            rest.clear();
        }
    }
}

/// Per-shard counter baselines at the start of the current window
/// (the inner index accumulates over its lifetime; windows subtract).
struct WindowBaseline {
    started: Instant,
    /// `(reorganizations, reorg_wall_ns)` per shard.
    reorg: Vec<(u64, u64)>,
}

/// A serving front end over `shards` independent adaptive cluster
/// indexes. See the crate docs for the threading, backpressure and
/// durability contracts.
pub struct ShardedIndex {
    config: ServeConfig,
    shards: Vec<Arc<ShardShared>>,
    workers: Vec<Option<JoinHandle<()>>>,
    collector: Arc<Collector>,
    next_seq: AtomicU64,
    events_submitted: AtomicU64,
    queue_full_rejections: AtomicU64,
    submit_stalls: AtomicU64,
    submit_stall_ns: AtomicU64,
    window: Mutex<WindowBaseline>,
    /// [`SPIN_BUDGET`], or zero on a host without a core to spare.
    spin: Duration,
}

impl ShardedIndex {
    /// Builds an empty sharded index and starts its workers.
    pub fn new(config: ServeConfig) -> Result<Self, IndexError> {
        Self::validate(&config)?;
        let indexes = (0..config.shards)
            .map(|_| AdaptiveClusterIndex::new(config.index.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Self::assemble(config, indexes)
    }

    fn validate(config: &ServeConfig) -> Result<(), IndexError> {
        if config.shards == 0 {
            return Err(IndexError::InvalidConfig(
                "shard count must be positive".into(),
            ));
        }
        if config.queue_cap == 0 {
            return Err(IndexError::InvalidConfig(
                "queue capacity must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Wraps pre-built per-shard indexes (empty on the `new` path,
    /// recovered ones on the `recover` path), rejecting an object held
    /// by a shard that does not own it (so partitions cannot overlap).
    fn assemble(
        config: ServeConfig,
        indexes: Vec<AdaptiveClusterIndex>,
    ) -> Result<Self, IndexError> {
        let n = config.shards;
        debug_assert_eq!(indexes.len(), n);
        for (shard, index) in indexes.iter().enumerate() {
            if let Some(id) = index.object_ids().find(|&id| shard_of(id, n) != shard) {
                let msg = format!("object #{} recovered on shard {shard}, not its owner", id.0);
                return Err(IndexError::InvalidConfig(msg));
            }
        }
        let collector = Arc::new(Collector {
            pending: Mutex::new(HashMap::new()),
            completed: Mutex::new(Vec::new()),
            latencies: Mutex::new(Vec::new()),
            events_completed: AtomicU64::new(0),
            retain_results: config.retain_results,
        });
        // Without a core to spare a spinner holds the core its peer
        // needs: two shards spinning on two cores serve `churn_wal` at
        // half the rate of parking at once.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spin = if cores > config.shards {
            SPIN_BUDGET
        } else {
            Duration::ZERO
        };
        let queue_cap = config.queue_cap;
        let mut shards = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for (i, mut index) in indexes.into_iter().enumerate() {
            let shared = Arc::new(ShardShared {
                queue: BoundedQueue::new(config.queue_cap, spin),
                events: AtomicU64::new(0),
                depth_hist: (0..=config.queue_cap).map(|_| AtomicU64::new(0)).collect(),
            });
            let worker = {
                let shared = Arc::clone(&shared);
                let collector = Arc::clone(&collector);
                std::thread::Builder::new()
                    .name(format!("acx-shard-{i}"))
                    .spawn(move || {
                        let _close = CloseOnExit(&shared.queue);
                        // Dropped unrun if a closure panics, which wakes
                        // every caller queued behind it in the batch.
                        let mut batch = VecDeque::with_capacity(queue_cap);
                        let mut halves = Vec::with_capacity(queue_cap);
                        let publish = |halves: &mut Vec<_>| {
                            shared
                                .events
                                .fetch_add(halves.len() as u64, Ordering::Relaxed);
                            collector.complete_all(halves);
                        };
                        while shared.queue.pop_all(&mut batch) {
                            for cmd in batch.drain(..) {
                                match cmd {
                                    Command::Event { seq, query } => {
                                        halves.push((seq, index.execute(&query).matches));
                                    }
                                    Command::Apply(f) => {
                                        // A closure sees every event
                                        // queued ahead of it completed.
                                        publish(&mut halves);
                                        f(&mut index);
                                    }
                                }
                            }
                            publish(&mut halves);
                        }
                    })
                    .expect("spawn shard worker")
            };
            shards.push(shared);
            workers.push(Some(worker));
        }
        let reorg = vec![(0, 0); config.shards];
        Ok(Self {
            config,
            shards,
            workers,
            collector,
            next_seq: AtomicU64::new(0),
            events_submitted: AtomicU64::new(0),
            queue_full_rejections: AtomicU64::new(0),
            submit_stalls: AtomicU64::new(0),
            submit_stall_ns: AtomicU64::new(0),
            window: Mutex::new(WindowBaseline {
                started: Instant::now(),
                reorg,
            }),
            spin,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shard that owns `id`.
    fn owner(&self, id: ObjectId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Resident subscriptions across all shards: a round trip through
    /// every shard's queue, so it waits behind queued work.
    pub fn len(&self) -> usize {
        self.ask_all(|index| index.len()).into_iter().sum()
    }

    /// Whether no subscriptions are resident (waits as `len` does).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is resident on its owning shard (a round trip).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.with_shard(self.owner(id), move |index| index.contains(id))
    }

    /// All resident subscription ids, ascending (waits as `len` does).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self
            .ask_all(|index| index.object_ids().collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect();
        ids.sort_unstable();
        ids
    }

    // ------------------------------------------------------------------
    // Event ingestion
    // ------------------------------------------------------------------

    /// Fans `query` out to every shard without blocking. Returns the
    /// event's sequence number, or [`SubmitError::QueueFull`] when some
    /// shard's queue is at capacity — in which case the reservation on
    /// every other shard is rolled back and the event reaches *no*
    /// shard.
    pub fn try_submit(&self, query: SpatialQuery) -> Result<u64, SubmitError> {
        for (i, shard) in self.shards.iter().enumerate() {
            if !shard.queue.try_reserve() {
                for reserved in &self.shards[..i] {
                    reserved.queue.cancel_reservation();
                }
                self.queue_full_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull);
            }
        }
        Ok(self.publish(query))
    }

    /// Fans `query` out to every shard, waiting for queue capacity
    /// where needed. The wait is recorded as a backpressure stall in
    /// [`ServeStats`]. Returns the event's sequence number.
    pub fn submit(&self, query: SpatialQuery) -> u64 {
        let mut waited_ns = 0u64;
        for shard in &self.shards {
            waited_ns += shard.queue.reserve();
        }
        if waited_ns > 0 {
            self.submit_stalls.fetch_add(1, Ordering::Relaxed);
            self.submit_stall_ns.fetch_add(waited_ns, Ordering::Relaxed);
        }
        self.publish(query)
    }

    /// Publishes into slots already reserved on every shard.
    fn publish(&self, query: SpatialQuery) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // Register before the first push: a fast worker may complete
        // its half before the fan-out finishes.
        self.collector.register(seq, self.shards.len());
        self.events_submitted.fetch_add(1, Ordering::Relaxed);
        let query = Arc::new(query);
        for shard in &self.shards {
            let depth = shard.queue.push_reserved(Command::Event {
                seq,
                query: Arc::clone(&query),
            });
            shard.depth_hist[depth.min(self.config.queue_cap)]
                .fetch_add(1, Ordering::Relaxed);
        }
        seq
    }

    /// Blocks until every event and mutation submitted so far has been
    /// executed on every shard. Queues are FIFO, so one round-trip
    /// no-op per shard is a full barrier.
    pub fn flush(&self) {
        self.ask_all(|_| ());
    }

    /// Completed results accumulated since the last drain, ascending by
    /// sequence number. Empty unless the config retains results.
    pub fn drain_results(&self) -> Vec<EventResult> {
        let mut results =
            std::mem::take(&mut *self.collector.completed.lock().expect("collector lock"));
        results.sort_unstable_by_key(|r| r.seq);
        results
    }

    // ------------------------------------------------------------------
    // Mutations and reads (routed to the owning shard, synchronous)
    // ------------------------------------------------------------------

    /// Enqueues a closure on `shard`'s worker, behind everything
    /// already queued. Blocks only for queue capacity, not execution.
    fn send_apply(&self, shard: usize, f: Box<dyn FnOnce(&mut AdaptiveClusterIndex) + Send>) {
        let q = &self.shards[shard].queue;
        q.reserve();
        q.push_reserved(Command::Apply(f));
    }

    /// Enqueues `f` on `shard`'s worker and returns the reply slot its
    /// result comes back through.
    fn ask<R, F>(&self, shard: usize, f: F) -> Reply<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut AdaptiveClusterIndex) -> R + Send + 'static,
    {
        let (replier, reply) = reply_slot();
        self.send_apply(shard, Box::new(move |index| replier.send(f(index))));
        reply
    }

    /// Runs `f` on every shard behind its queued work, enqueueing on all
    /// before waiting on any, and returns the results in shard order.
    fn ask_all<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut AdaptiveClusterIndex) -> R + Clone + Send + 'static,
    {
        let replies: Vec<_> = (0..self.shards()).map(|s| self.ask(s, f.clone())).collect();
        replies.into_iter().map(|reply| self.wait(reply)).collect()
    }

    /// The answer in `reply`; panics if its shard's worker is gone.
    fn wait<R>(&self, reply: Reply<R>) -> R {
        reply.wait(self.spin).expect("shard worker exited")
    }

    /// Runs `f` against `shard`'s index from its worker thread, after
    /// everything already queued there, and returns its result. The
    /// inspection hook for tests and stats — also how every mutation
    /// and read below reaches its owning shard.
    pub fn with_shard<R, F>(&self, shard: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut AdaptiveClusterIndex) -> R + Send + 'static,
    {
        self.wait(self.ask(shard, f))
    }

    /// Like [`ShardedIndex::with_shard`], but returns the receiving end
    /// of the result channel immediately instead of waiting — parks
    /// work on one shard while the caller keeps going (the other shards
    /// are unaffected either way).
    pub fn with_shard_deferred<R, F>(&self, shard: usize, f: F) -> mpsc::Receiver<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut AdaptiveClusterIndex) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        self.send_apply(
            shard,
            Box::new(move |index| {
                let _ = tx.send(f(index));
            }),
        );
        rx
    }

    /// Inserts a subscription on its owning shard. Waits for the shard
    /// to apply it (mutations are synchronous; events are not).
    pub fn insert(&self, id: ObjectId, rect: HyperRect) -> Result<(), IndexError> {
        self.with_shard(self.owner(id), move |index| index.insert(id, rect))
    }

    /// Bulk insert, one application per shard. Each shard inserts its
    /// objects in input order until the first it refuses (a duplicate
    /// id, resident or repeated in `objects`, included) and keeps those
    /// before it; the call returns the first refusing shard's error.
    pub fn insert_all<I>(&self, objects: I) -> Result<(), IndexError>
    where
        I: IntoIterator<Item = (ObjectId, HyperRect)>,
    {
        let mut groups: Vec<Vec<(ObjectId, HyperRect)>> = vec![Vec::new(); self.shards.len()];
        for (id, rect) in objects {
            groups[self.owner(id)].push((id, rect));
        }
        let mut replies = Vec::new();
        for (shard, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                let insert = move |index: &mut AdaptiveClusterIndex| {
                    group
                        .into_iter()
                        .try_for_each(|(id, rect)| index.insert(id, rect))
                };
                replies.push(self.ask(shard, insert));
            }
        }
        let results = replies.into_iter().map(|reply| self.wait(reply));
        results.fold(Ok(()), Result::and)
    }

    /// Removes a subscription from its owning shard.
    pub fn remove(&self, id: ObjectId) -> Result<HyperRect, IndexError> {
        self.with_shard(self.owner(id), move |index| index.remove(id))
    }

    /// Replaces a subscription's rectangle on its owning shard,
    /// returning the old one. The owner depends on the id alone, so the
    /// update is one mutation on one shard's log.
    pub fn update(&self, id: ObjectId, rect: HyperRect) -> Result<HyperRect, IndexError> {
        self.with_shard(self.owner(id), move |index| index.update(id, rect))
    }

    /// The rectangle of a resident subscription (a round trip).
    pub fn get(&self, id: ObjectId) -> Option<HyperRect> {
        self.with_shard(self.owner(id), move |index| index.get(id))
    }

    // ------------------------------------------------------------------
    // Durability (composes with the core WAL/checkpoint layer)
    // ------------------------------------------------------------------

    /// Attaches a write-ahead log to every shard: `dir/shard-<i>.wal`,
    /// created (or truncated) fresh.
    pub fn attach_wal_dir(&self, dir: &Path, policy: FlushPolicy) -> Result<(), IndexError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| IndexError::Wal(acx_storage::WalError::from(e)))?;
        let dims = self.config.index.dims;
        for shard in 0..self.shards.len() {
            let store = FileBacking::create(&shard_file(dir, shard, "wal"))
                .map_err(|e| IndexError::Wal(acx_storage::WalError::from(e)))?;
            let wal = Wal::create(Box::new(store), policy, dims).map_err(IndexError::Wal)?;
            self.with_shard(shard, move |index| index.attach_wal(wal))?;
        }
        Ok(())
    }

    /// Checkpoints every shard to `dir/shard-<i>.ckpt`, truncating each
    /// shard's log (the core checkpoint/WAL generation coupling applies
    /// per shard).
    pub fn checkpoint_all(&self, dir: &Path) -> Result<(), IndexError> {
        std::fs::create_dir_all(dir).map_err(|e| IndexError::Store(StoreError::Io(e)))?;
        for shard in 0..self.shards.len() {
            let path = shard_file(dir, shard, "ckpt");
            self.with_shard(shard, move |index| index.checkpoint(&path))?;
        }
        Ok(())
    }

    /// Rebuilds a sharded index from `dir`: each shard recovers from
    /// its own `shard-<i>.ckpt` (when present) plus `shard-<i>.wal`,
    /// independently — disjoint partitions need no cross-log order.
    /// `config.shards` must be the count the files were written with:
    /// files of shard `config.shards`, or none of some shard below it,
    /// are refused with [`IndexError::InvalidConfig`] before a file is
    /// opened or created, and so is an object on a shard not its owner.
    pub fn recover(
        dir: &Path,
        policy: FlushPolicy,
        config: ServeConfig,
    ) -> Result<(Self, Vec<RecoveryReport>), IndexError> {
        Self::validate(&config)?;
        let n = config.shards;
        let written = |s| shard_file(dir, s, "wal").exists() || shard_file(dir, s, "ckpt").exists();
        // Shards below `n` each left a log or a checkpoint; shard `n` none.
        if let Some(shard) = (0..=n).find(|&s| written(s) == (s == n)) {
            let found = if shard == n { "files" } else { "no files" };
            let msg = format!("{found} of shard {shard} in {dir:?}: not {n} shards");
            return Err(IndexError::InvalidConfig(msg));
        }
        let mut indexes = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        for shard in 0..n {
            let ckpt = shard_file(dir, shard, "ckpt");
            let ckpt = ckpt.exists().then_some(ckpt);
            let store = FileBacking::open(&shard_file(dir, shard, "wal"))
                .map_err(|e| IndexError::Wal(acx_storage::WalError::from(e)))?;
            let (index, report) = AdaptiveClusterIndex::recover(
                ckpt.as_deref(),
                Box::new(store),
                policy,
                config.index.clone(),
            )?;
            indexes.push(index);
            reports.push(report);
        }
        let recovered = Self::assemble(config, indexes)?;
        Ok((recovered, reports))
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Snapshot of the current measurement window. Performs one
    /// synchronous round-trip through each shard's queue (it observes
    /// each shard at a consistent point), so it waits behind whatever
    /// is queued — call after [`ShardedIndex::flush`] for end-of-run
    /// numbers.
    pub fn stats(&self) -> ServeStats {
        let window = self.window.lock().expect("window lock");
        let window_wall_ns = window.started.elapsed().as_nanos() as u64;
        let baselines = window.reorg.clone();
        drop(window);
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut reorg_passes = 0u64;
        let mut reorg_stall_ns = 0u64;
        let counters = self.ask_all(|index| {
            (
                index.len(),
                index.cluster_count(),
                index.reorganizations(),
                index.reorg_wall_ns(),
            )
        });
        for (i, (shared, (objects, clusters, passes, stall_ns))) in
            self.shards.iter().zip(counters).enumerate()
        {
            let (base_passes, base_stall) = baselines[i];
            let hist: Vec<u64> = shared
                .depth_hist
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            let shard = ShardStats {
                shard: i,
                events: shared.events.load(Ordering::Relaxed),
                objects,
                clusters,
                reorg_passes: passes - base_passes,
                reorg_stall_ns: stall_ns - base_stall,
                queue_depth_p50: stats::nearest_rank_hist(&hist, 50.0),
                queue_depth_p99: stats::nearest_rank_hist(&hist, 99.0),
            };
            reorg_passes += shard.reorg_passes;
            reorg_stall_ns += shard.reorg_stall_ns;
            per_shard.push(shard);
        }
        let mut latencies = self
            .collector
            .latencies
            .lock()
            .expect("collector lock")
            .clone();
        latencies.sort_unstable();
        ServeStats {
            shards: per_shard,
            events_submitted: self.events_submitted.load(Ordering::Relaxed),
            events_completed: self.collector.events_completed.load(Ordering::Relaxed),
            queue_full_rejections: self.queue_full_rejections.load(Ordering::Relaxed),
            submit_stalls: self.submit_stalls.load(Ordering::Relaxed),
            submit_stall_ns: self.submit_stall_ns.load(Ordering::Relaxed),
            latency_p50_ns: stats::nearest_rank(&latencies, 50.0),
            latency_p99_ns: stats::nearest_rank(&latencies, 99.0),
            reorg_passes,
            reorg_stall_ns,
            window_wall_ns,
        }
    }

    /// Starts a fresh measurement window: zeroes every windowed counter
    /// and sample, and re-baselines the per-shard reorganization
    /// counters. The benches call this between warm-up and measurement.
    pub fn reset_stats_window(&self) {
        let reorg = self.ask_all(|index| (index.reorganizations(), index.reorg_wall_ns()));
        for shared in &self.shards {
            shared.events.store(0, Ordering::Relaxed);
            for counter in &shared.depth_hist {
                counter.store(0, Ordering::Relaxed);
            }
        }
        self.events_submitted.store(0, Ordering::Relaxed);
        self.collector.events_completed.store(0, Ordering::Relaxed);
        self.queue_full_rejections.store(0, Ordering::Relaxed);
        self.submit_stalls.store(0, Ordering::Relaxed);
        self.submit_stall_ns.store(0, Ordering::Relaxed);
        self.collector
            .latencies
            .lock()
            .expect("collector lock")
            .clear();
        let mut window = self.window.lock().expect("window lock");
        window.started = Instant::now();
        window.reorg = reorg;
    }
}

/// `dir/shard-<shard>.<ext>`: a shard's log (`wal`) or checkpoint (`ckpt`).
fn shard_file(dir: &Path, shard: usize, ext: &str) -> PathBuf {
    dir.join(format!("shard-{shard}.{ext}"))
}

impl Drop for ShardedIndex {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.queue.close();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acx_geom::Scalar;

    fn rect(lo: Scalar, hi: Scalar) -> HyperRect {
        HyperRect::from_bounds(&[lo, lo, lo], &[hi, hi, hi]).unwrap()
    }

    fn small_index(shards: usize) -> ShardedIndex {
        ShardedIndex::new(
            ServeConfig::new(IndexConfig::memory(3))
                .with_shards(shards)
                .retaining_results(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        let c = ServeConfig::new(IndexConfig::memory(3)).with_shards(0);
        assert!(matches!(
            ShardedIndex::new(c),
            Err(IndexError::InvalidConfig(_))
        ));
        let c = ServeConfig {
            queue_cap: 0,
            ..ServeConfig::new(IndexConfig::memory(3))
        };
        assert!(matches!(
            ShardedIndex::new(c),
            Err(IndexError::InvalidConfig(_))
        ));
    }

    /// The owning shard refuses the object with a typed error instead of
    /// its worker dying on it, and the id stays free for a later insert.
    #[test]
    fn an_insert_outside_the_domain_fails_and_releases_its_route() {
        let index = small_index(2);
        let outside = HyperRect::from_bounds(&[0.5, 0.5, 0.5], &[1.5, 0.6, 0.6]).unwrap();
        assert!(matches!(
            index.insert(ObjectId(7), outside),
            Err(IndexError::OutOfDomain(7))
        ));
        assert!(!index.contains(ObjectId(7)));
        index.insert(ObjectId(7), rect(0.1, 0.2)).unwrap();
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn routes_mutations_and_answers_queries() {
        let index = small_index(3);
        index.insert(ObjectId(1), rect(0.1, 0.3)).unwrap();
        index.insert(ObjectId(2), rect(0.2, 0.5)).unwrap();
        index.insert(ObjectId(3), rect(0.7, 0.9)).unwrap();
        assert_eq!(index.len(), 3);
        assert!(index.contains(ObjectId(2)));
        assert_eq!(
            index.object_ids(),
            vec![ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        assert_eq!(index.get(ObjectId(3)), Some(rect(0.7, 0.9)));
        assert_eq!(index.get(ObjectId(9)), None);

        index
            .submit(SpatialQuery::point_enclosing(vec![0.25, 0.25, 0.25]))
            .to_string();
        index.flush();
        let results = index.drain_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].matches, vec![ObjectId(1), ObjectId(2)]);

        assert_eq!(index.remove(ObjectId(1)).unwrap(), rect(0.1, 0.3));
        assert!(matches!(
            index.remove(ObjectId(1)),
            Err(IndexError::UnknownObject(1))
        ));
        assert!(matches!(
            index.insert(ObjectId(2), rect(0.0, 1.0)),
            Err(IndexError::DuplicateObject(2))
        ));
        assert_eq!(index.update(ObjectId(2), rect(0.6, 0.8)).unwrap(), rect(0.2, 0.5));
        index
            .submit(SpatialQuery::point_enclosing(vec![0.7, 0.7, 0.7]))
            .to_string();
        index.flush();
        let results = index.drain_results();
        assert_eq!(results[0].matches, vec![ObjectId(2), ObjectId(3)]);
    }

    /// The owner depends on the id alone: an update that moves the
    /// rectangle across the domain leaves the subscription where it was.
    #[test]
    fn update_stays_on_the_owning_shard() {
        let index = small_index(4);
        index.insert(ObjectId(7), rect(0.0, 0.1)).unwrap();
        let owner = shard_of(ObjectId(7), 4);
        index.update(ObjectId(7), rect(0.9, 1.0)).unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index.get(ObjectId(7)), Some(rect(0.9, 1.0)));
        for shard in 0..4 {
            let len = index.with_shard(shard, |i: &mut AdaptiveClusterIndex| i.len());
            assert_eq!(len, usize::from(shard == owner), "shard {shard}");
        }
    }

    /// The objects each shard holds, summed.
    fn held(index: &ShardedIndex) -> usize {
        (0..index.shards())
            .map(|s| index.with_shard(s, |i: &mut AdaptiveClusterIndex| i.len()))
            .sum()
    }

    #[test]
    fn insert_all_groups_by_shard() {
        let index = small_index(4);
        index
            .insert_all((0..40).map(|i| (ObjectId(i), rect(0.1, 0.6))))
            .unwrap();
        assert_eq!(index.len(), 40);
        assert_eq!(held(&index), 40);
        assert!(matches!(
            index.insert_all([(ObjectId(5), rect(0.0, 1.0))]),
            Err(IndexError::DuplicateObject(5))
        ));
        assert_eq!(index.len(), 40, "a refused bulk insert must not add objects");
    }

    /// Each shard inserts its share of a batch in order until the first
    /// id it refuses and keeps the ones before it; the other shards take
    /// their whole share. The call returns the refusal.
    #[test]
    fn insert_all_keeps_each_shards_objects_before_its_first_refusal() {
        let index = small_index(4);
        let owner = |id: u32| shard_of(ObjectId(id), 4);
        let insert_all = |ids: Vec<u32>| {
            index.insert_all(ids.into_iter().map(|id| (ObjectId(id), rect(0.1, 0.6))))
        };
        let mut kept_total = 0;
        // A duplicate inside the batch, then an already-resident id.
        for (repeated, fresh, tail) in [(5, 0..20, 20..30), (3, 30..40, 40..50)] {
            assert!(
                tail.clone().any(|id| owner(id) == owner(repeated)),
                "premise: the refusing shard has objects after the refusal"
            );
            let ids = fresh.clone().chain([repeated]).chain(tail.clone()).collect();
            assert!(matches!(
                insert_all(ids),
                Err(IndexError::DuplicateObject(id)) if id == repeated
            ));
            for id in fresh.chain(tail.clone()) {
                let kept = owner(id) != owner(repeated) || !tail.contains(&id);
                assert_eq!(index.contains(ObjectId(id)), kept, "#{id}");
                kept_total += usize::from(kept);
            }
        }
        assert_eq!(held(&index), kept_total);
        assert_eq!(index.len(), kept_total);
        assert_eq!(index.object_ids().len(), kept_total);
    }

    /// Two inserts of one id meet in the owning shard's queue: the first
    /// there is applied, the second refused.
    #[test]
    fn racing_inserts_of_one_id_admit_exactly_one() {
        const IDS: u32 = 100;
        let index = Arc::new(small_index(4));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let index = Arc::clone(&index);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    (0..IDS)
                        .map(|id| {
                            barrier.wait();
                            index.insert(ObjectId(id), rect(0.1, 0.2))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outcomes: Vec<_> = racers.into_iter().map(|t| t.join().unwrap()).collect();
        for (id, (a, b)) in outcomes[0].iter().zip(&outcomes[1]).enumerate() {
            let refused = if a.is_ok() { b } else { a };
            assert!(a.is_ok() != b.is_ok(), "#{id}: {a:?} and {b:?}");
            assert!(matches!(refused, Err(IndexError::DuplicateObject(r)) if *r as usize == id));
        }
        assert_eq!(index.len(), IDS as usize);
        assert_eq!(held(&index), IDS as usize);
    }

    /// An id no shard holds is answered by its owner: absent, unknown to
    /// a removal or an update, and the shard keeps serving.
    #[test]
    fn an_id_no_shard_holds_is_refused_by_its_owner() {
        for shards in [1, 4] {
            let index = small_index(shards);
            index.insert(ObjectId(1), rect(0.1, 0.3)).unwrap();
            let absent = ObjectId(9);
            assert!(!index.contains(absent));
            assert_eq!(index.get(absent), None);
            assert!(matches!(
                index.remove(absent),
                Err(IndexError::UnknownObject(9))
            ));
            assert!(matches!(
                index.update(absent, rect(0.2, 0.4)),
                Err(IndexError::UnknownObject(9))
            ));
            index.insert(absent, rect(0.2, 0.4)).unwrap();
            index.submit(SpatialQuery::point_enclosing(vec![0.25, 0.25, 0.25]));
            index.flush();
            let results = index.drain_results();
            assert_eq!(results[0].matches, vec![ObjectId(1), absent], "{shards} shards");
            assert_eq!(index.len(), 2);
            assert_eq!(index.get(absent), Some(rect(0.2, 0.4)));
        }
    }

    #[test]
    fn stats_window_resets() {
        let index = small_index(2);
        index.insert(ObjectId(1), rect(0.2, 0.4)).unwrap();
        for _ in 0..10 {
            index.submit(SpatialQuery::point_enclosing(vec![0.3, 0.3, 0.3]));
        }
        index.flush();
        let stats = index.stats();
        assert_eq!(stats.events_submitted, 10);
        assert_eq!(stats.events_completed, 10);
        assert_eq!(stats.shards.len(), 2);
        for shard in &stats.shards {
            assert_eq!(shard.events, 10, "every event reaches every shard");
        }
        assert!(stats.window_wall_ns > 0);
        index.reset_stats_window();
        let stats = index.stats();
        assert_eq!(stats.events_submitted, 0);
        assert_eq!(stats.events_completed, 0);
        assert_eq!(stats.latency_p50_ns, 0);
        assert_eq!(stats.shards[0].events, 0);
    }

    #[test]
    fn a_panic_mid_batch_wakes_every_caller_behind_it() {
        const CALLERS: usize = 3;
        let index = Arc::new(small_index(1));
        index.insert(ObjectId(1), rect(0.2, 0.4)).unwrap();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let _gate = index.with_shard_deferred(0, move |_| {
            let _ = entered_tx.send(());
            let _ = gate_rx.recv();
        });
        entered_rx.recv().expect("worker reaches the gate");

        // Everything below queues behind the gate: one batch.
        for _ in 0..2 {
            index.submit(SpatialQuery::point_enclosing(vec![0.3, 0.3, 0.3]));
        }
        let _panicked = index.with_shard_deferred(0, |_| panic!("injected failure"));
        let (woken_tx, woken_rx) = mpsc::channel();
        for _ in 0..CALLERS {
            let index = Arc::clone(&index);
            let woken_tx = woken_tx.clone();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    index.with_shard(0, |i: &mut AdaptiveClusterIndex| i.len())
                }));
                let _ = woken_tx.send(outcome.is_err());
            });
        }
        let deferred = index.with_shard_deferred(0, |i: &mut AdaptiveClusterIndex| i.len());
        while index.shards[0].queue.len() < 2 + 1 + CALLERS + 1 {
            std::thread::yield_now();
        }
        gate_tx.send(()).unwrap();

        for k in 0..CALLERS {
            let panicked = woken_rx
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("caller {k} behind the panic was never woken"));
            assert!(panicked, "caller {k}: \"shard worker exited\"");
        }
        assert_eq!(
            deferred.recv_timeout(Duration::from_secs(2)),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "a deferred closure behind the panic is dropped unrun"
        );
        let results = index.drain_results();
        assert_eq!(
            results.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1],
            "events ahead of the panic in the batch were published first"
        );
    }

    #[test]
    fn dropping_an_idle_index_joins_its_workers_promptly() {
        // Right after the last reply the worker is spinning (where the
        // host has a core to spare); well past the budget it is parked.
        // Close ends either wait. A worker it failed to wake would never
        // be joined; the bound is a second, not a multiple of the
        // budget, because on a loaded single core the scheduler alone
        // can delay the worker's wake-up by milliseconds.
        for idle in [Duration::ZERO, SPIN_BUDGET * 10] {
            let index = small_index(1);
            index.insert(ObjectId(1), rect(0.2, 0.4)).unwrap();
            index.flush();
            std::thread::sleep(idle);
            let started = Instant::now();
            drop(index);
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "idle {idle:?}: drop took {took:?}"
            );
        }
    }
}
