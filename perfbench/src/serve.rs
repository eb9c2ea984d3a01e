//! The serve phases: one generator thread (the caller) in front of a
//! `ShardedIndex` with `S` shard workers, hash partitioning, the default
//! queue capacity and results retained, since a pub/sub tier that
//! delivers no notifications is not the product.

use std::path::Path;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use acx_core::IndexConfig;
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_serve::{ServeConfig, ServeStats, ShardBy, ShardedIndex};

use crate::estimators::{median, MatchSum};
use crate::solo::WAL_POLICY;
use crate::trace::Tracer;
use crate::workloads::{Op, Spec};
use crate::yardstick::{Pass, Reading, Yardstick};
use crate::Fallible;

/// `S = clamp(nproc − 1, 1, 4)`: the generator keeps one core.
pub fn default_shards() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores.saturating_sub(1)).clamp(1, 4)
}

/// Same objects and warm-up as the solo set-up, into a fresh tier.
pub fn setup(
    spec: &Spec,
    shards: usize,
    objects: &[HyperRect],
    warmup: &[SpatialQuery],
    dir: &Path,
) -> Fallible<(ShardedIndex, f64)> {
    let owned: Vec<(ObjectId, HyperRect)> = objects
        .iter()
        .enumerate()
        .map(|(i, rect)| (ObjectId(i as u32), rect.clone()))
        .collect();
    let warmup = warmup.to_vec();
    let started = Instant::now();
    let config = ServeConfig::new(IndexConfig::memory(spec.dims))
        .with_shards(shards)
        .with_shard_by(ShardBy::Hash)
        .retaining_results();
    let index = ShardedIndex::new(config)?;
    index.insert_all(owned)?;
    if spec.wal {
        index.attach_wal_dir(dir, WAL_POLICY)?;
        index.checkpoint_all(dir)?;
    }
    for q in warmup {
        index.submit(q);
    }
    index.flush();
    index.drain_results();
    Ok((index, started.elapsed().as_secs_f64()))
}

/// How long before an operation is due the generator stops sleeping.
const WAKE_MARGIN_NS: u64 = 100_000;

/// What the serve epochs and windows add up to.
#[derive(Default)]
pub struct ServeRun {
    /// Serve-closed: time of each epoch in reference seconds
    /// (`WorkerReadings`), from the slowest shard's first operation to
    /// its last.
    pub epoch_s: Vec<f64>,
    pub closed_ops: u64,
    pub closed_events: u64,
    /// Serve-open: `ServeStats` of each window, and the speed of the
    /// shard workers' cores over it (`WorkerReadings`): the factor that
    /// turns the window's times into reference times.
    pub windows: Vec<(ServeStats, f64)>,
    pub open_ops: u64,
    pub open_events: u64,
    /// How late the generator issued each serve-open operation.
    pub late_ns: Vec<u64>,
    pub refused: u64,
    /// Events accepted but without a result after `flush()`.
    pub incomplete: u64,
    pub failed_mutations: u64,
    /// Serve-closed backpressure, from `ServeStats`.
    pub submit_stalls: u64,
    pub submit_stall_ns: u64,
    /// Traced runs only: generator time inside `submit`/`try_submit`
    /// and `drain_results`.
    pub submit_ns: u64,
    pub drain_ns: u64,
    /// Fold of every delivered event's checksum.
    pub total: MatchSum,
}

impl ServeRun {
    /// Operations per epoch over the median epoch's wall time.
    pub fn ops_per_s(&self) -> f64 {
        let ops_per_epoch = self.closed_ops as f64 / self.epoch_s.len().max(1) as f64;
        ops_per_epoch / median(&self.epoch_s).max(f64::MIN_POSITIVE)
    }

    /// A time of each serve-open window, in reference microseconds.
    pub fn window_us(&self, ns: impl Fn(&ServeStats) -> u64) -> Vec<f64> {
        self.windows
            .iter()
            .map(|(stats, speed)| ns(stats) as f64 * speed / 1e3)
            .collect()
    }

    /// The median over the windows of a count of a window.
    pub fn window_count(&self, count: impl Fn(&ServeStats) -> f64) -> f64 {
        median(
            &self
                .windows
                .iter()
                .map(|(w, _)| count(w))
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs `f`, recording a generator-side span around it when tracing.
fn spanned<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    event: u64,
    spent_ns: &mut u64,
    f: impl FnOnce() -> R,
) -> R {
    let Some(tracer) = tracer else {
        return f();
    };
    let start = tracer.now();
    let out = f();
    let end = tracer.now();
    tracer.push(name, start, end, None, event);
    *spent_ns += end - start;
    out
}

/// Applies one mutation through the tier (synchronous: it waits behind
/// everything queued on the owning shard).
fn mutate(index: &ShardedIndex, op: Op) -> bool {
    match op {
        Op::Insert(id, rect) => index.insert(id, rect).is_err(),
        Op::Remove(id) => index.remove(id).is_err(),
        Op::Update(id, rect) => index.update(id, rect).is_err(),
        Op::Event(_) => unreachable!("events are submitted, not applied"),
    }
}

/// Collects the results of the events accepted since the last drain.
/// `accepted[k]` is the position, among the epoch's events, of the
/// k-th accepted one; results come back in submission order.
fn collect(
    index: &ShardedIndex,
    events: usize,
    accepted: &[usize],
    run: &mut ServeRun,
    tracer: &mut Option<&mut Tracer>,
) -> Vec<Option<MatchSum>> {
    let results = spanned(tracer, "serve.drain", 0, &mut run.drain_ns, || {
        index.drain_results()
    });
    run.incomplete += (accepted.len() - results.len().min(accepted.len())) as u64;
    let mut sums = vec![None; events];
    for (&position, result) in accepted.iter().zip(&results) {
        let sum = MatchSum::of(&result.matches);
        run.total.fold(sum);
        sums[position] = Some(sum);
    }
    sums
}

/// Readings of the yardstick taken by the shard workers themselves.
///
/// The tier's work happens on the workers' threads, and two cores of the
/// reference host are slow at different times (their yardstick readings
/// over a minute correlate at 0.14), so a reading on the generator's
/// thread says nothing about them; a thread that has just slept reads
/// slow for its own reasons besides. So the kernel is queued on every
/// shard like a mutation (`with_shard_deferred`), before the first
/// operation of an epoch or window, after every `stretch_ops` and after
/// the last: each worker takes its readings between the operations they
/// bracket, and tells when.
#[derive(Default)]
struct WorkerReadings {
    /// `queued[k][shard]`
    queued: Vec<Vec<Receiver<Pass>>>,
}

impl WorkerReadings {
    fn queue(&mut self, index: &ShardedIndex, yard: &Yardstick) {
        let on_every_shard = (0..index.shards())
            .map(|shard| {
                let kernel = yard.kernel();
                index.with_shard_deferred(shard, move |_| kernel.pass())
            })
            .collect();
        self.queued.push(on_every_shard);
    }

    /// Waits for the readings and sums, shard by shard, the time
    /// between consecutive ones (the passes themselves left out) as the
    /// clock read it and in reference time. Returns `(clock_ns,
    /// reference_ns)` per shard.
    fn collect(self, yard: &mut Yardstick) -> Vec<(f64, f64)> {
        let shards = self.queued.first().map_or(0, Vec::len);
        let mut sums = vec![(0.0, 0.0); shards];
        let mut last: Vec<Option<(Pass, Reading)>> = vec![None; shards];
        for readings in self.queued {
            for (shard, reading) in readings.into_iter().enumerate() {
                let pass = reading.recv().expect("shard worker exited");
                let after = yard.note(pass);
                if let Some((earlier, before)) = last[shard] {
                    let clock_ns = pass
                        .started
                        .saturating_duration_since(earlier.ended)
                        .as_nanos() as f64;
                    sums[shard].0 += clock_ns;
                    sums[shard].1 += clock_ns * before.speed_until(after);
                }
                last[shard] = Some((pass, after));
            }
        }
        sums
    }
}

/// Phase 3, one epoch: the stream through blocking `submit`, then
/// `flush()`; the results are drained after the clock stops.
pub fn closed_epoch(
    index: &ShardedIndex,
    ops: &[Op],
    stretch_ops: usize,
    yard: &mut Yardstick,
    run: &mut ServeRun,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Option<MatchSum>> {
    let owned = ops.to_vec();
    let mut accepted = Vec::with_capacity(ops.len());
    let mut readings = WorkerReadings::default();
    index.reset_stats_window();
    readings.queue(index, yard);
    for (ordinal, op) in owned.into_iter().enumerate() {
        if ordinal > 0 && ordinal.is_multiple_of(stretch_ops) {
            readings.queue(index, yard);
        }
        if let Op::Event(q) = op {
            accepted.push(accepted.len());
            spanned(
                &mut tracer,
                "serve.submit",
                ordinal as u64,
                &mut run.submit_ns,
                || index.submit(q),
            );
        } else {
            run.failed_mutations += u64::from(mutate(index, op));
        }
    }
    readings.queue(index, yard);
    spanned(&mut tracer, "serve.flush", 0, &mut 0, || index.flush());
    // The epoch is over when the slowest shard is through.
    let slowest_ns = readings
        .collect(yard)
        .into_iter()
        .map(|(_, reference_ns)| reference_ns)
        .fold(0.0, f64::max);
    run.epoch_s.push(slowest_ns / 1e9);
    run.closed_ops += ops.len() as u64;
    run.closed_events += accepted.len() as u64;
    let stats = index.stats();
    run.submit_stalls += stats.submit_stalls;
    run.submit_stall_ns += stats.submit_stall_ns;
    collect(index, accepted.len(), &accepted, run, &mut tracer)
}

/// Phase 4, one window: operation `i` is due `i / rate` seconds after
/// the window opens; the generator sleeps and yields until then, never waits for
/// the tier on an event (`try_submit`), and notes how late it was.
pub fn open_window(
    index: &ShardedIndex,
    ops: &[Op],
    rate_eps: f64,
    stretch_ops: usize,
    yard: &mut Yardstick,
    run: &mut ServeRun,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Option<MatchSum>> {
    let owned = ops.to_vec();
    let mut accepted = Vec::with_capacity(ops.len());
    let mut events = 0;
    let interval_ns = 1e9 / rate_eps;
    let mut readings = WorkerReadings::default();
    index.reset_stats_window();
    readings.queue(index, yard);
    let started = Instant::now();
    for (ordinal, op) in owned.into_iter().enumerate() {
        if ordinal > 0 && ordinal.is_multiple_of(stretch_ops) {
            readings.queue(index, yard);
        }
        let due_ns = (ordinal as f64 * interval_ns) as u64;
        let now_ns = loop {
            let now_ns = started.elapsed().as_nanos() as u64;
            if now_ns >= due_ns {
                break now_ns;
            }
            // Sleep through most of a long wait and yield through the
            // rest: a generator that spins can keep a shard worker off
            // the core it was woken on for a whole scheduler slice.
            if due_ns - now_ns > 2 * WAKE_MARGIN_NS {
                std::thread::sleep(Duration::from_nanos(due_ns - now_ns - WAKE_MARGIN_NS));
            } else {
                std::thread::yield_now();
            }
        };
        run.late_ns.push(now_ns - due_ns);
        if let Op::Event(q) = op {
            let outcome = spanned(
                &mut tracer,
                "serve.submit",
                ordinal as u64,
                &mut run.submit_ns,
                || index.try_submit(q),
            );
            match outcome {
                Ok(_) => accepted.push(events),
                Err(_) => run.refused += 1,
            }
            events += 1;
        } else {
            run.failed_mutations += u64::from(mutate(index, op));
        }
    }
    readings.queue(index, yard);
    spanned(&mut tracer, "serve.flush", 0, &mut 0, || index.flush());
    let stats = index.stats();
    let (clock_ns, reference_ns) = readings
        .collect(yard)
        .into_iter()
        .fold((0.0, 0.0), |sum, shard| (sum.0 + shard.0, sum.1 + shard.1));
    run.windows.push((stats, reference_ns / clock_ns.max(1.0)));
    run.open_ops += ops.len() as u64;
    run.open_events += events as u64;
    collect(index, events, &accepted, run, &mut tracer)
}
