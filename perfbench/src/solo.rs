//! The solo phases: one caller thread, closed loop, straight into
//! `AdaptiveClusterIndex`. Set-up, measured epochs (plain and traced),
//! restart, and the read-only layer probes.

use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use acx_core::{
    AdaptiveClusterIndex, ClusterSnapshot, IndexConfig, QueryScratch, RecoveryReport, ReorgProfile,
    StatsDelta,
};
use acx_geom::scan::{scan_columns, PairedColumns, ScanScratch};
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_storage::{AccessStats, FileBacking, FlushPolicy, QueryMetrics, Wal};

use crate::estimators::{median, percentile, MatchSum};
use crate::trace::Tracer;
use crate::workloads::{Op, Spec};
use crate::yardstick::{scaled, Reading, Yardstick};
use crate::Fallible;

/// Flush policy of every log in the benchmark, stated once so both
/// sides of a comparison run the same one.
pub const WAL_POLICY: FlushPolicy = FlushPolicy::PerBatch(64);
/// Restarts per run, with and without a log to replay (which takes ten
/// times as long); `recover_s` is their median.
const LOGGED_RESTARTS: usize = 7;
const UNLOGGED_RESTARTS: usize = 21;

const WAL_FILE: &str = "solo.wal";
const CHECKPOINT_FILE: &str = "solo.ckpt";

/// Timed work between two readings of the yardstick: long enough that
/// the readings (a quarter of a millisecond each) cost a few percent,
/// short enough that the host's speed rarely changes inside it.
const STRETCH_NS: u64 = 4_000_000;

/// Phase 1: build the index over `objects`, on a logged workload attach
/// the log and checkpoint, then adapt the index on the warm-up events.
/// Returns the index and the reference seconds all of that took (each
/// stretch of it scaled by the host's speed at the time).
///
/// The checkpoint comes before the warm-up so that it holds a single
/// cluster and no free slots: at this commit `load` rejects some
/// checkpoints of adapted indexes (see [`restart`]), and a set-up that
/// fails on one seed in ten is no benchmark.
pub fn setup(
    spec: &Spec,
    objects: &[HyperRect],
    warmup: &[SpatialQuery],
    dir: &Path,
    yard: &mut Yardstick,
) -> Fallible<(AdaptiveClusterIndex, f64)> {
    std::fs::create_dir_all(dir)?;
    let owned = objects.to_vec();
    let mut reference_ns = 0.0;
    let mut before = yard.read();
    let mut started = Instant::now();
    // Ends the running stretch if it is long enough, or anyway.
    let mut lap = |anyway: bool| {
        let raw_ns = started.elapsed().as_nanos() as u64;
        if anyway || raw_ns >= STRETCH_NS {
            let after = yard.read();
            reference_ns += raw_ns as f64 * before.speed_until(after);
            before = after;
            started = Instant::now();
        }
    };
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(spec.dims))?;
    for (i, rect) in owned.into_iter().enumerate() {
        index.insert(ObjectId(i as u32), rect)?;
        lap(false);
    }
    if spec.wal {
        let store = FileBacking::create(&dir.join(WAL_FILE))?;
        index.attach_wal(Wal::create(Box::new(store), WAL_POLICY, spec.dims)?)?;
        index.checkpoint(&dir.join(CHECKPOINT_FILE))?;
        lap(false);
    }
    for q in warmup {
        index.execute(q);
        lap(false);
    }
    lap(true);
    Ok((index, reference_ns / 1e9))
}

/// What the epochs of one solo stream add up to. Every time in it is
/// in reference nanoseconds (`yardstick`).
#[derive(Default)]
pub struct SoloRun {
    /// Per-event call time: `execute`, or the traced pair standing in
    /// for it.
    pub event_ns: Vec<u64>,
    /// Per-call times of `insert`, `remove`, `update`.
    pub mutation_ns: [Vec<u64>; 3],
    /// Summed call time of every operation as the clock read it, and
    /// the same in reference nanoseconds: their ratio is the host's
    /// speed over the stream.
    pub raw_ns: u64,
    pub reference_ns: u64,
    /// Where each epoch ends in the vectors above, and what it cost.
    epochs: Vec<EpochEnd>,
    pub ops: u64,
    pub failed_mutations: u64,
    pub access: AccessStats,
    pub matches: u64,
    /// Cost-model price of every event, in stream order.
    pub priced_ms: Vec<f64>,
    /// Fold of every event's checksum.
    pub total: MatchSum,
    pub passes: PassTotals,
    /// Traced epochs only: the `apply_stats` calls that ran a pass.
    pub pass_ns: Vec<u64>,
}

#[derive(Clone, Copy)]
struct EpochEnd {
    events: usize,
    mutations: [usize; 3],
    /// Summed call time of the epoch's operations.
    busy_ns: u64,
}

/// The solo metrics: each the median, over the run's epochs, of one
/// statistic of an epoch.
pub struct Summary {
    /// Median event call of an epoch.
    pub event_p50_us: f64,
    /// p99.5 event call of an epoch. One call in a hundred carries a
    /// reorganization pass, so in an epoch of 100 events this is the
    /// pass-bearing call, and in an epoch of 1 600 the 9th slowest
    /// call: the median of its 16 pass-bearing calls.
    pub event_p995_us: f64,
    /// Operations per epoch over the call time of an epoch.
    pub ops_per_s: f64,
}

/// Sums of `last_reorg_profile()` read after every pass.
#[derive(Default)]
pub struct PassTotals {
    pub passes: u64,
    pub candidate_scans: u64,
    pub screened_out: u64,
    pub thrash_cycles: u64,
    pub arena_live_bytes: u64,
}

impl PassTotals {
    fn note(&mut self, profile: ReorgProfile) {
        self.passes += 1;
        self.candidate_scans += profile.candidate_scans;
        self.screened_out += profile.screened_out;
        self.thrash_cycles += profile.thrash_cycles;
        self.arena_live_bytes = profile.arena_live_bytes;
    }
}

/// `starts[k]..ends[k]` for consecutive ends.
fn ranges(ends: impl Iterator<Item = usize> + Clone) -> impl Iterator<Item = Range<usize>> {
    std::iter::once(0)
        .chain(ends.clone())
        .zip(ends)
        .map(|(start, end)| start..end)
}

impl SoloRun {
    pub fn events(&self) -> u64 {
        self.event_ns.len() as u64
    }

    fn note_event(&mut self, ns: u64, metrics: &QueryMetrics, matches: &[ObjectId]) -> MatchSum {
        self.event_ns.push(ns);
        self.access.merge(&metrics.stats);
        self.matches += matches.len() as u64;
        self.priced_ms.push(metrics.priced_ms);
        let sum = MatchSum::of(matches);
        self.total.fold(sum);
        sum
    }

    fn note_mutation(&mut self, kind: usize, ns: u64, failed: bool) {
        self.mutation_ns[kind].push(ns);
        self.failed_mutations += u64::from(failed);
    }

    fn end_epoch(&mut self, ops: usize, busy_ns: u64) {
        self.ops += ops as u64;
        self.epochs.push(EpochEnd {
            events: self.event_ns.len(),
            mutations: self.mutation_ns.each_ref().map(Vec::len),
            busy_ns,
        });
    }

    /// Percentile `p` of the event call times of each epoch, in stream
    /// order, in microseconds.
    pub fn epoch_event_us(&self, p: f64) -> Vec<f64> {
        ranges(self.epochs.iter().map(|end| end.events))
            .map(|events| percentile(&self.event_ns[events], p) as f64 / 1e3)
            .collect()
    }

    /// Mean, over the three kinds, of the median call time of a kind in
    /// each epoch, in microseconds; and the three medians themselves.
    /// Three kinds of call with three costs: the median of the pooled
    /// calls would sit wherever the mix puts it.
    pub fn epoch_mutation_p50_us(&self) -> Vec<[f64; 4]> {
        let kinds = [0, 1, 2].map(|kind| {
            ranges(self.epochs.iter().map(move |end| end.mutations[kind]))
                .map(|calls| percentile(&self.mutation_ns[kind][calls], 50.0) as f64 / 1e3)
                .collect::<Vec<_>>()
        });
        (0..self.epochs.len())
            .map(|k| {
                let [i, r, u] = [kinds[0][k], kinds[1][k], kinds[2][k]];
                [(i + r + u) / 3.0, i, r, u]
            })
            .collect()
    }

    /// Call time of each epoch, in seconds.
    pub fn epoch_busy_s(&self) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|end| end.busy_ns as f64 / 1e9)
            .collect()
    }

    pub fn summary(&self) -> Summary {
        let ops_per_epoch = self.ops as f64 / self.epochs.len().max(1) as f64;
        Summary {
            event_p50_us: median(&self.epoch_event_us(50.0)),
            event_p995_us: median(&self.epoch_event_us(99.5)),
            ops_per_s: ops_per_epoch / median(&self.epoch_busy_s()).max(f64::MIN_POSITIVE),
        }
    }

    /// The host's speed over the stream, as a share of the reference
    /// speed.
    pub fn host_speed(&self) -> f64 {
        self.reference_ns as f64 / self.raw_ns.max(1) as f64
    }
}

/// The structural counters two equivalent runs must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Structure {
    pub clusters: usize,
    pub splits: u64,
    pub merges: u64,
    pub passes: u64,
}

impl Structure {
    pub fn of(index: &AdaptiveClusterIndex) -> Self {
        Structure {
            clusters: index.cluster_count(),
            splits: index.total_splits(),
            merges: index.total_merges(),
            passes: index.reorganizations(),
        }
    }
}

/// Applies one mutation: which kind it was, how long the call took,
/// and whether it returned `Err`.
fn mutate(index: &mut AdaptiveClusterIndex, op: &Op) -> (usize, u64, bool) {
    // Clones happen before the clock starts: the index takes ownership.
    match op {
        Op::Insert(id, rect) => {
            let rect = rect.clone();
            let started = Instant::now();
            let result = index.insert(*id, rect);
            (0, started.elapsed().as_nanos() as u64, result.is_err())
        }
        Op::Remove(id) => {
            let started = Instant::now();
            let result = index.remove(*id);
            (1, started.elapsed().as_nanos() as u64, result.is_err())
        }
        Op::Update(id, rect) => {
            let rect = rect.clone();
            let started = Instant::now();
            let result = index.update(*id, rect);
            (2, started.elapsed().as_nanos() as u64, result.is_err())
        }
        Op::Event(_) => unreachable!("events are executed, not applied"),
    }
}

const MUTATION_SPANS: [&str; 3] = ["core.insert", "core.remove", "core.update"];

/// A stretch of an epoch between two readings of the yardstick: where
/// it began in the run's vectors, and how much call time it holds.
struct Stretch {
    before: Reading,
    events: usize,
    mutations: [usize; 3],
    passes: usize,
    raw_ns: u64,
}

impl Stretch {
    fn open(before: Reading, run: &SoloRun) -> Self {
        Stretch {
            before,
            events: run.event_ns.len(),
            mutations: run.mutation_ns.each_ref().map(Vec::len),
            passes: run.pass_ns.len(),
            raw_ns: 0,
        }
    }

    /// Turns the call times recorded since the stretch opened into
    /// reference nanoseconds; returns their sum.
    fn close(self, after: Reading, run: &mut SoloRun) -> u64 {
        let speed = self.before.speed_until(after);
        let mut reference_ns = 0;
        let mutations = run.mutation_ns.iter_mut().zip(self.mutations);
        for (calls, from) in mutations.chain([(&mut run.event_ns, self.events)]) {
            for ns in &mut calls[from..] {
                *ns = scaled(*ns, speed);
                reference_ns += *ns;
            }
        }
        for ns in &mut run.pass_ns[self.passes..] {
            *ns = scaled(*ns, speed);
        }
        run.raw_ns += self.raw_ns;
        run.reference_ns += reference_ns;
        reference_ns
    }
}

/// Runs `ops` through `call` (which times one operation, records it in
/// the run and returns its nanoseconds), a reading of the yardstick
/// before, after, and after every `STRETCH_NS` of call time in between.
fn in_stretches(
    ops: &[Op],
    yard: &mut Yardstick,
    run: &mut SoloRun,
    mut call: impl FnMut(u64, &Op, &mut SoloRun) -> u64,
) {
    let mut busy_ns = 0;
    let mut stretch = Stretch::open(yard.read(), run);
    for (ordinal, op) in (0..).zip(ops) {
        stretch.raw_ns += call(ordinal, op, run);
        if stretch.raw_ns >= STRETCH_NS {
            let after = yard.read();
            busy_ns += stretch.close(after, run);
            stretch = Stretch::open(after, run);
        }
    }
    if stretch.raw_ns > 0 {
        busy_ns += stretch.close(yard.read(), run);
    }
    run.end_epoch(ops.len(), busy_ns);
}

/// Phase 2, one epoch (or one block of the mutation stream): every
/// operation through the index, each call timed. Returns one checksum
/// per event for the reference check.
pub fn epoch(
    index: &mut AdaptiveClusterIndex,
    ops: &[Op],
    yard: &mut Yardstick,
    run: &mut SoloRun,
) -> Vec<Option<MatchSum>> {
    let mut sums = Vec::with_capacity(ops.len());
    in_stretches(ops, yard, run, |_, op, run| {
        let Op::Event(q) = op else {
            let (kind, ns, failed) = mutate(index, op);
            run.note_mutation(kind, ns, failed);
            return ns;
        };
        let passes = index.reorganizations();
        let started = Instant::now();
        let result = index.execute(q);
        let ns = started.elapsed().as_nanos() as u64;
        sums.push(Some(run.note_event(ns, &result.metrics, &result.matches)));
        if index.reorganizations() != passes {
            run.passes.note(index.last_reorg_profile());
        }
        ns
    });
    sums
}

/// The caller-owned state `execute` keeps inside the index.
#[derive(Default)]
pub struct TracedState {
    delta: StatsDelta,
    scratch: QueryScratch,
}

/// One traced epoch: `execute(q)` replaced by its documented equivalent
/// `query_recorded_with` + `apply_stats`, one span per call. `first` is
/// the stream ordinal of the epoch's first operation. Spans keep the
/// clock's nanoseconds; what the run records is scaled like any epoch.
pub fn traced_epoch(
    index: &mut AdaptiveClusterIndex,
    ops: &[Op],
    first: u64,
    yard: &mut Yardstick,
    state: &mut TracedState,
    run: &mut SoloRun,
    tracer: &mut Tracer,
) -> Vec<Option<MatchSum>> {
    let mut sums = Vec::with_capacity(ops.len());
    in_stretches(ops, yard, run, |nth, op, run| {
        let ordinal = first + nth;
        let Op::Event(q) = op else {
            let t0 = tracer.now();
            let (kind, ns, failed) = mutate(index, op);
            tracer.push(MUTATION_SPANS[kind], t0, t0 + ns, None, ordinal);
            run.note_mutation(kind, ns, failed);
            return ns;
        };
        let passes = index.reorganizations();
        let pass_wall = index.reorg_wall_ns();
        let root = tracer.open("solo.event", ordinal);
        state.delta.clear();
        let t0 = tracer.now();
        let metrics = index.query_recorded_with(q, &mut state.delta, &mut state.scratch);
        let t1 = tracer.now();
        index.apply_stats(&state.delta);
        let t2 = tracer.now();
        tracer.push("core.query_recorded", t0, t1, Some(root), ordinal);
        let apply = tracer.push("core.apply", t1, t2, Some(root), ordinal);
        if index.reorganizations() != passes {
            // The pass is the tail of `apply_stats`.
            let pass_ns = (index.reorg_wall_ns() - pass_wall).min(t2 - t1);
            tracer.push("core.reorganize", t2 - pass_ns, t2, Some(apply), ordinal);
            run.pass_ns.push(t2 - t1);
            run.passes.note(index.last_reorg_profile());
        }
        tracer.close(root);
        sums.push(Some(run.note_event(
            t2 - t0,
            &metrics,
            state.scratch.matches(),
        )));
        t2 - t0
    });
    sums
}

/// The observable state a restart must bring back: every object, and
/// the cluster tree's shape. Which cluster a replayed insert lands in,
/// and so the per-cluster member counts, depends on access statistics
/// of events, which no log records; neither do access probabilities.
#[derive(PartialEq)]
pub struct Durable {
    objects: Vec<(ObjectId, HyperRect)>,
    /// `(depth, signature)` of every cluster, sorted.
    clusters: Vec<(usize, String)>,
}

impl Durable {
    pub fn of(index: &AdaptiveClusterIndex) -> Self {
        let mut ids: Vec<ObjectId> = index.object_ids().collect();
        ids.sort_unstable();
        let objects = ids
            .into_iter()
            .map(|id| (id, index.get(id).expect("listed id is resident")))
            .collect();
        let mut clusters: Vec<_> = index
            .snapshots()
            .into_iter()
            .map(|s: ClusterSnapshot| (s.depth, s.signature))
            .collect();
        clusters.sort_unstable();
        Durable { objects, clusters }
    }
}

pub struct Restart {
    /// Reference seconds of `recover`, one value per restart.
    pub recover_s: Vec<f64>,
    pub report: RecoveryReport,
    /// Whether the recovered index equals the live one.
    pub equal: bool,
    /// Log size and record count before recovery (0 without a log).
    pub wal_bytes: u64,
    pub wal_records: u64,
    /// Re-appending the run's own records to a fresh log, same policy.
    pub wal_append_ns_per_record: f64,
    /// Checkpointing the final state.
    pub checkpoint_s: f64,
    pub checkpoint_bytes: u64,
    pub objects: usize,
    /// Checkpoints of the live index that `load` refused.
    pub rejected_checkpoints: u32,
}

/// Phase 5: make the index durable the way its workload does (sync the
/// log, or write a checkpoint where there is none), drop it, and
/// recover from the files alone.
///
/// At this commit `load` sizes the slot space by the highest live slot,
/// so it rejects the checkpoint of a valid index whose free list names
/// a higher one ("free slot N is live or out of range"; about one
/// `hotspot_drift` seed in ten ends its stream in such a state). Until
/// that is fixed, a rejected checkpoint is counted, the index runs one
/// more pass of `spare` events, and the checkpoint is written again.
pub fn restart(
    spec: &Spec,
    mut index: AdaptiveClusterIndex,
    spare: &[SpatialQuery],
    dir: &Path,
    yard: &mut Yardstick,
) -> Fallible<Restart> {
    let wal_path = dir.join(WAL_FILE);
    let checkpoint = dir.join(CHECKPOINT_FILE);
    let config = IndexConfig::memory(spec.dims);
    let mut rejected_checkpoints = 0;
    if spec.wal {
        index.sync_wal()?;
    } else {
        let mut spare = spare.chunks(config.reorg_period.max(1) as usize);
        loop {
            index.checkpoint(&checkpoint)?;
            match (
                AdaptiveClusterIndex::load(&checkpoint, config.clone()),
                spare.next(),
            ) {
                (Ok(_), _) => break,
                (Err(_), Some(pass)) => {
                    rejected_checkpoints += 1;
                    for q in pass {
                        index.execute(q);
                    }
                }
                (Err(error), None) => return Err(error.into()),
            }
        }
    }
    let live = Durable::of(&index);
    drop(index);

    let (wal_bytes, records) = if spec.wal {
        let mut store = FileBacking::open(&wal_path)?;
        (
            std::fs::metadata(&wal_path)?.len(),
            Wal::replay(&mut store)?.records,
        )
    } else {
        (0, Vec::new())
    };

    let restarts = if spec.wal {
        LOGGED_RESTARTS
    } else {
        UNLOGGED_RESTARTS
    };
    let mut seconds = Vec::with_capacity(restarts);
    let mut recovered = None;
    for _ in 0..restarts {
        drop(recovered.take());
        let before = yard.read();
        let started = Instant::now();
        let store = FileBacking::open(&wal_path)?;
        let pair = AdaptiveClusterIndex::recover(
            Some(&checkpoint),
            Box::new(store),
            WAL_POLICY,
            config.clone(),
        )?;
        let raw_s = started.elapsed().as_secs_f64();
        seconds.push(raw_s * before.speed_until(yard.read()));
        recovered = Some(pair);
    }
    let (mut index, report) = recovered.expect("at least one restart");
    let equal = Durable::of(&index) == live;

    let wal_append_ns_per_record = if records.is_empty() {
        0.0
    } else {
        let store = FileBacking::create(&dir.join("append-probe.wal"))?;
        let mut wal = Wal::create(Box::new(store), WAL_POLICY, spec.dims)?;
        let started = Instant::now();
        for record in &records {
            wal.append(record)?;
        }
        wal.sync()?;
        started.elapsed().as_nanos() as f64 / records.len() as f64
    };

    let final_checkpoint = dir.join("final.ckpt");
    let started = Instant::now();
    index.checkpoint(&final_checkpoint)?;
    let checkpoint_s = started.elapsed().as_secs_f64();

    Ok(Restart {
        recover_s: seconds,
        report,
        equal,
        wal_bytes,
        wal_records: records.len() as u64,
        wal_append_ns_per_record,
        checkpoint_s,
        checkpoint_bytes: std::fs::metadata(&final_checkpoint)?.len(),
        objects: index.len(),
        rejected_checkpoints,
    })
}

/// Read-only replays on the final index: what exploring costs without
/// recording, what recording adds, and what the bare kernel costs over
/// all live objects as one segment.
pub struct LayerProbe {
    pub explore_ns_per_event: f64,
    pub record_ns_per_event: f64,
    pub scan_ns_per_object: f64,
    pub scan_dims_per_object: f64,
}

pub fn probe_layers(index: &AdaptiveClusterIndex, events: &[&SpatialQuery]) -> LayerProbe {
    let n = events.len().max(1) as f64;
    let mut scratch = QueryScratch::new();
    let mut delta = StatsDelta::new();
    let (mut explore_ns, mut recorded_ns) = (0u64, 0u64);
    for q in events {
        let started = Instant::now();
        std::hint::black_box(index.query_with(q, &mut scratch));
        explore_ns += started.elapsed().as_nanos() as u64;
        delta.clear();
        let started = Instant::now();
        std::hint::black_box(index.query_recorded_with(q, &mut delta, &mut scratch));
        recorded_ns += started.elapsed().as_nanos() as u64;
    }

    let mut cols: Vec<Vec<Scalar>> = vec![Vec::with_capacity(index.len()); 2 * index.dims()];
    for id in index.object_ids() {
        let rect = index.get(id).expect("listed id is resident");
        for (d, iv) in rect.intervals().iter().enumerate() {
            cols[2 * d].push(iv.lo());
            cols[2 * d + 1].push(iv.hi());
        }
    }
    let mut kernel = ScanScratch::new();
    let (mut scan_ns, mut dims_checked, mut scanned) = (0u64, 0u64, 0u64);
    for q in events {
        let started = Instant::now();
        let outcome = scan_columns(q, &PairedColumns::new(&cols), &mut kernel);
        scan_ns += started.elapsed().as_nanos() as u64;
        dims_checked += outcome.dims_checked;
        scanned += outcome.objects as u64;
    }
    let scanned = scanned.max(1) as f64;
    LayerProbe {
        explore_ns_per_event: explore_ns as f64 / n,
        record_ns_per_event: (recorded_ns as f64 - explore_ns as f64) / n,
        scan_ns_per_object: scan_ns as f64 / scanned,
        scan_dims_per_object: dims_checked as f64 / scanned,
    }
}

/// Median, over the hotspot jumps inside the measured stream, of the
/// events until the trailing-100 mean price is back within 1.25× of
/// its level just before the jump (capped at the next jump). `0` for a
/// stream without jumps.
pub fn readapt_events(priced_ms: &[f64], shifts: &[usize]) -> f64 {
    const WINDOW: usize = 100;
    let mean = |range: std::ops::Range<usize>| {
        priced_ms[range.clone()].iter().sum::<f64>() / range.len() as f64
    };
    let mut waits = Vec::new();
    for (k, &shift) in shifts.iter().enumerate() {
        let horizon = shifts.get(k + 1).copied().unwrap_or(priced_ms.len());
        if shift < WINDOW || shift + WINDOW > horizon {
            continue;
        }
        let before = mean(shift - WINDOW..shift);
        let wait = (shift + WINDOW..=horizon)
            .find(|&end| mean(end - WINDOW..end) <= 1.25 * before)
            .map_or(horizon - shift, |end| end - shift);
        waits.push(wait as f64);
    }
    crate::estimators::median(&waits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readapt_counts_events_until_the_price_is_back() {
        // Price 1.0, a jump at 200 to 3.0 that decays back by 400.
        let mut priced = vec![1.0; 200];
        priced.extend(vec![3.0; 100]);
        priced.extend(vec![1.0; 300]);
        // The first trailing window entirely at 1.0 ends at 400; with
        // 1.25× slack the mean is back once ≤ 12 of 100 are still 3.0.
        assert_eq!(readapt_events(&priced, &[200]), 188.0);
        assert_eq!(readapt_events(&priced, &[]), 0.0);
        // A jump the stream never recovers from is capped at the end.
        let stuck: Vec<f64> = (0..600).map(|i| if i < 200 { 1.0 } else { 3.0 }).collect();
        assert_eq!(readapt_events(&stuck, &[200]), 400.0);
    }
}
