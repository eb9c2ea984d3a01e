//! The four workloads: what each one is, why it is there, how large it
//! is, and the generation of its inputs from a seed.
//!
//! The program under test receives only what this module generates:
//! objects, events and mutations. Sizes are constants chosen on the
//! reference host (see README.md) and scaled only by `--seconds`, never
//! by measured speed, so the operation counts of a run repeat exactly.

use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_workloads::{
    calibrate, ClusteredObjects, EventStream, PubSubGenerator, UniformWorkload, Workload,
    WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::estimators::Digest;

/// Seed of the committed baseline numbers and of the pinned digests.
pub const DEFAULT_SEED: u64 = 0x5E41;
/// `--seconds` the stream lengths below are written for.
pub const REF_SECONDS: u64 = 16;
/// A run is `ROUNDS` rounds; a round is a few solo epochs, a few
/// mutation blocks, a few serve-closed epochs and a few serve-open
/// windows. Interleaving spreads every phase over the whole run, so a
/// loud spell of the shared host lands in a few stretches of each phase
/// instead of in all of one.
pub const ROUNDS: usize = 12;

/// One operation of a measured stream.
#[derive(Debug, Clone)]
pub enum Op {
    Event(SpatialQuery),
    Insert(ObjectId, HyperRect),
    Remove(ObjectId),
    Update(ObjectId, HyperRect),
}

/// Stream lengths of one run.
///
/// The unit of the solo and serve-closed streams is the **epoch**:
/// `epoch_events` events and the mutations that fall between them.
/// Epochs of one stream are alike (same number of events, of
/// reorganization passes and, on `hotspot_drift`, of visits to every
/// site), so an epoch's time says something about the host and not
/// about its events, and the median of a per-epoch statistic is a
/// property of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub objects: usize,
    /// Events through `execute` before anything is measured.
    pub warmup_events: usize,
    /// Events per epoch: a multiple of the index's reorganization
    /// period (100 events), so every epoch holds the same number of
    /// passes.
    pub epoch_events: usize,
    /// Epochs of the solo phase, all rounds together.
    pub solo_epochs: usize,
    /// Epochs of the serve-closed phase.
    pub closed_epochs: usize,
    /// Operations per serve-open window, and windows per run.
    pub window_ops: usize,
    pub open_windows: usize,
    /// Operations per block of the mutation stream, and blocks per run.
    pub block_ops: usize,
    pub mutation_blocks: usize,
}

impl Sizes {
    /// The sizes for a run of `seconds`: the population, the warm-up
    /// and the length of an epoch, window or block are the workload's;
    /// how many of them a run holds scales with its length (a whole
    /// number per round, at least one).
    pub fn scaled(self, seconds: u64) -> Sizes {
        let scale = |parts: usize| {
            let per_round = (parts as u64 * seconds / REF_SECONDS) as usize / ROUNDS;
            per_round.max(1) * ROUNDS
        };
        Sizes {
            solo_epochs: scale(self.solo_epochs),
            closed_epochs: scale(self.closed_epochs),
            open_windows: scale(self.open_windows),
            mutation_blocks: scale(self.mutation_blocks),
            ..self
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PubSub,
    Uniform,
    Hotspot,
}

/// A workload's definition. Every workload runs the same phases and
/// reports the same metrics; only these values differ.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// The one-line reason (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    pub dims: usize,
    /// Sizes at `REF_SECONDS`.
    pub sizes: Sizes,
    /// Share of the measured streams' operations that are mutations
    /// (insert-new / remove-oldest / update, equal thirds; the
    /// population size stays put). The read-mostly workloads have none:
    /// a trickle of new objects keeps the index splitting, so the event
    /// cost rises through the run (by a third over 75 000 operations on
    /// `hotspot_drift` at a 4 % share) and the metrics would measure
    /// where the run stopped.
    pub mutation_share: f64,
    /// Whether the index logs to a file-backed WAL
    /// (`FlushPolicy::PerBatch(64)`), attached and checkpointed right
    /// after the bulk load.
    pub wal: bool,
    /// Events the hotspot stays at one site before it jumps to the
    /// next; `0` for stationary streams.
    pub shift_every: usize,
    /// Operations of the serve phases between two readings of the
    /// yardstick on the shard workers: about 4 ms of their work (the
    /// solo phases take a reading after every 4 ms of call time).
    pub stretch_ops: usize,
    /// Arrival rate of the serve-open phase: about half of the
    /// serve-closed rate at the seed commit on the reference host.
    pub offered_rate_eps: f64,
    /// Digest of the default-seed inputs at `CANARY` sizes.
    pub pinned_digest: u64,
}

/// The mutation stream: blocks of operations that are nearly all
/// mutations, applied to an index of their own (built like the measured
/// one) a few blocks per round, each call timed. It gives
/// `mutation_p50_us` on every workload without a mutation in the event
/// streams of the read-mostly ones. The few events among them keep that
/// index reorganizing and let the reference check see the mutated
/// population. 48 blocks replace a seventh of the population.
const BLOCK_OPS: usize = 200;
const MUTATION_BLOCKS: usize = 48;
const BLOCK_MUTATION_SHARE: f64 = 0.9;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "pubsub_steady",
        why: "cheap stationary point events on 8-d subscriptions: fixed per-call cost (apply_stats, result clone, serve queue, collector) is the largest share and reorganize the smallest",
        kind: Kind::PubSub,
        dims: 8,
        sizes: Sizes {
            objects: 20_000,
            warmup_events: 4_000,
            epoch_events: 100,
            solo_epochs: 240,
            closed_epochs: 240,
            // 0.2 s at the offered rate.
            window_ops: 500,
            open_windows: 12,
            block_ops: BLOCK_OPS,
            mutation_blocks: MUTATION_BLOCKS,
        },
        mutation_share: 0.0,
        wal: false,
        shift_every: 0,
        stretch_ops: 32,
        offered_rate_eps: 2_500.0,
        pinned_digest: 0x640C_85CF_17B9_F5C5,
    },
    Spec {
        name: "uniform_range",
        why: "16-d uniform 1%-selectivity windows explore hundreds of clusters per event: per-cluster cost dominates and the never-worse-than-scan claim is tested at the largest n x dims",
        kind: Kind::Uniform,
        dims: 16,
        sizes: Sizes {
            objects: 20_000,
            warmup_events: 1_000,
            epoch_events: 100,
            // Events cost a millisecond: fewer, longer stretches.
            solo_epochs: 72,
            closed_epochs: 36,
            // 0.2 s at the offered rate.
            window_ops: 70,
            open_windows: 12,
            block_ops: BLOCK_OPS,
            mutation_blocks: MUTATION_BLOCKS,
        },
        mutation_share: 0.0,
        wal: false,
        shift_every: 0,
        stretch_ops: 4,
        offered_rate_eps: 350.0,
        pinned_digest: 0x63B5_EFAB_0B4B_1917,
    },
    Spec {
        name: "hotspot_drift",
        why: "a hotspot jumping round-robin among 8 sites of clustered 4-d objects never lets the clustering settle: reorganize does the most work here, and tail latency is the pass itself",
        kind: Kind::Hotspot,
        dims: 4,
        sizes: Sizes {
            objects: 20_000,
            // Eight rounds of the sites: the event cost levels off after
            // about six.
            warmup_events: 12_800,
            // Epochs and windows of 1 600 events: one round of the
            // sites, so all of them hold the same mix.
            epoch_events: 1_600,
            solo_epochs: 48,
            closed_epochs: 48,
            window_ops: 1_600,
            open_windows: 12,
            block_ops: BLOCK_OPS,
            mutation_blocks: MUTATION_BLOCKS,
        },
        mutation_share: 0.0,
        wal: false,
        shift_every: 200,
        stretch_ops: 96,
        offered_rate_eps: 6_000.0,
        pinned_digest: 0x7567_4EE2_BBE2_39A4,
    },
    Spec {
        name: "churn_wal",
        why: "the pubsub population under 50% mutations with a file-backed WAL and a restart: a read gain bought with slower inserts, logging or recovery shows here and nowhere else",
        kind: Kind::PubSub,
        dims: 8,
        sizes: Sizes {
            objects: 20_000,
            warmup_events: 4_000,
            // About 200 operations an epoch.
            epoch_events: 100,
            solo_epochs: 180,
            closed_epochs: 180,
            // 0.2 s at the offered rate.
            window_ops: 800,
            open_windows: 12,
            block_ops: BLOCK_OPS,
            mutation_blocks: MUTATION_BLOCKS,
        },
        mutation_share: 0.5,
        wal: true,
        shift_every: 0,
        stretch_ops: 64,
        offered_rate_eps: 4_000.0,
        pinned_digest: 0x2609_42DB_1EF6_89A5,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Sizes the pinned digests are taken at: large enough to run through
/// every generator path, small enough to recompute before every run.
pub const CANARY: Sizes = Sizes {
    objects: 2_000,
    warmup_events: 200,
    epoch_events: 100,
    solo_epochs: ROUNDS,
    closed_epochs: ROUNDS,
    window_ops: 80,
    open_windows: ROUNDS,
    block_ops: 60,
    mutation_blocks: ROUNDS,
};

// Hotspot geometry. The issue's first parameters (8-d, 8 centres,
// spread 0.08, window 0.08) gave zero matches on every event. The
// population is thousands of small clumps rather than a few large ones,
// and the sites are fixed, so that what the stream costs depends little
// on the seed: with seed-drawn sites over 256 clumps the median event
// cost of ten seeds ranged from 29 to 47 us on a quiet host.
const HOTSPOT_CENTRES: usize = 4096;
const HOTSPOT_SPREAD: Scalar = 0.05;
const HOTSPOT_MAX_LENGTH: Scalar = 0.2;
/// The hotspot visits this many sites round-robin, so any stretch of
/// `HOTSPOT_SITES * shift_every` events holds the same mix of sites and
/// every epoch of that many events costs the same. (A hotspot that
/// glides or jumps to ever new places leaves clusters behind faster
/// than they merge: the event cost of such a stream kept rising for
/// 120 000 events, and a metric of it measures where the run stopped.)
pub const HOTSPOT_SITES: usize = 8;
const HOTSPOT_EXTENT: Scalar = 0.3;
const HOTSPOT_WINDOW: Scalar = 0.08;
const UNIFORM_SELECTIVITY: f64 = 0.01;

/// Where a stream's events and fresh objects come from.
enum Source {
    PubSub {
        generator: PubSubGenerator,
        events: EventStream,
    },
    Uniform {
        workload: UniformWorkload,
        extent: Scalar,
    },
    Hotspot {
        population: ClusteredObjects,
    },
}

/// The object population, a function of the seed alone: both systems
/// under test start from the same objects.
fn population(spec: &Spec, seed: u64, objects: usize) -> Vec<HyperRect> {
    let config = WorkloadConfig::new(spec.dims, objects, seed);
    match spec.kind {
        Kind::PubSub => {
            let generator = PubSubGenerator::apartments();
            let mut rng = config.rng();
            (0..objects as u32)
                .map(|i| generator.subscription(i, &mut rng).ranges)
                .collect()
        }
        Kind::Uniform => UniformWorkload::new(config).generate_objects(),
        Kind::Hotspot => hotspot_population(config).generate_objects(),
    }
}

fn hotspot_population(config: WorkloadConfig) -> ClusteredObjects {
    ClusteredObjects::new(config, HOTSPOT_CENTRES, HOTSPOT_SPREAD, HOTSPOT_MAX_LENGTH)
}

/// Centre of the hotspot's `site`-th site: the corners of
/// `{0.25, 0.75}^dims` whose last coordinate makes the parity even, so
/// two sites differ in at least two coordinates and no two hotspots
/// (extent 0.3) overlap.
fn hotspot_site(site: usize, dims: usize) -> Vec<Scalar> {
    let bit = |d: usize| {
        if d + 1 < dims {
            (site >> d) & 1
        } else {
            (site.count_ones() as usize) & 1
        }
    };
    (0..dims)
        .map(|d| if bit(d) == 1 { 0.75 } else { 0.25 })
        .collect()
}

/// A window of extent `HOTSPOT_WINDOW` placed uniformly inside the
/// hotspot (extent `HOTSPOT_EXTENT`) around `centre`.
fn hotspot_window(rng: &mut StdRng, centre: &[Scalar]) -> SpatialQuery {
    let slack = (HOTSPOT_EXTENT - HOTSPOT_WINDOW) * 0.5;
    let lo: Vec<Scalar> = centre
        .iter()
        .map(|c| c + rng.gen_range(-slack..=slack) - HOTSPOT_WINDOW * 0.5)
        .collect();
    let hi: Vec<Scalar> = lo.iter().map(|l| l + HOTSPOT_WINDOW).collect();
    SpatialQuery::intersection(
        HyperRect::from_bounds(&lo, &hi).expect("the hotspot is inside the domain"),
    )
}

/// A deterministic stream of operations over a live id range
/// `lo..hi`: inserts take `hi`, removals take `lo`, updates a uniform
/// id in between.
struct OpStream {
    source: Source,
    dims: usize,
    rng: StdRng,
    lo: u32,
    hi: u32,
    mutation_share: f64,
    shift_every: usize,
    events: usize,
    /// Event ordinals (within this stream) at which the hotspot jumped.
    shifts: Vec<usize>,
}

impl OpStream {
    fn new(spec: &Spec, seed: u64, stream_seed: u64, objects: usize) -> Self {
        // The population parameters come from `seed`, so fresh objects
        // are drawn from the distribution the resident ones came from.
        let config = WorkloadConfig::new(spec.dims, objects, seed);
        let source = match spec.kind {
            Kind::PubSub => Source::PubSub {
                generator: PubSubGenerator::apartments(),
                events: EventStream::with_flexibility(
                    PubSubGenerator::apartments(),
                    stream_seed,
                    0.0,
                ),
            },
            Kind::Uniform => {
                let workload = UniformWorkload::new(config);
                let extent = calibrate::uniform_query_extent(&workload, UNIFORM_SELECTIVITY, seed);
                Source::Uniform { workload, extent }
            }
            Kind::Hotspot => Source::Hotspot {
                population: hotspot_population(config),
            },
        };
        OpStream {
            source,
            dims: spec.dims,
            rng: StdRng::seed_from_u64(stream_seed ^ 0x0B5E_55ED),
            lo: 0,
            hi: objects as u32,
            mutation_share: spec.mutation_share,
            shift_every: spec.shift_every,
            events: 0,
            shifts: Vec::new(),
        }
    }

    fn next_event(&mut self) -> SpatialQuery {
        let ordinal = self.events;
        self.events += 1;
        match &mut self.source {
            Source::PubSub { events, .. } => events.next_query(),
            Source::Uniform { workload, extent } => {
                SpatialQuery::intersection(workload.sample_window(&mut self.rng, *extent))
            }
            Source::Hotspot { .. } => {
                if ordinal > 0 && ordinal.is_multiple_of(self.shift_every) {
                    self.shifts.push(ordinal);
                }
                let site = (ordinal / self.shift_every) % HOTSPOT_SITES;
                hotspot_window(&mut self.rng, &hotspot_site(site, self.dims))
            }
        }
    }

    fn sample_object(&mut self, id: u32) -> HyperRect {
        match &self.source {
            Source::PubSub { generator, .. } => generator.subscription(id, &mut self.rng).ranges,
            Source::Uniform { workload, .. } => workload.sample_object(&mut self.rng),
            Source::Hotspot { population, .. } => population.sample_object(&mut self.rng),
        }
    }

    fn next_op(&mut self) -> Op {
        if !self.rng.gen_bool(self.mutation_share) {
            return Op::Event(self.next_event());
        }
        match self.rng.gen_range(0..3u32) {
            0 => {
                let id = self.hi;
                self.hi += 1;
                Op::Insert(ObjectId(id), self.sample_object(id))
            }
            // Never empty the population (it cannot happen at equal
            // thirds; the guard keeps every generated stream valid).
            1 if self.hi - self.lo > 1 => {
                let id = self.lo;
                self.lo += 1;
                Op::Remove(ObjectId(id))
            }
            _ => {
                let id = self.rng.gen_range(self.lo..self.hi);
                Op::Update(ObjectId(id), self.sample_object(id))
            }
        }
    }

    fn next_ops(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// The operations up to and including the `events`-th event from
    /// here: one epoch.
    fn next_epoch(&mut self, events: usize) -> Vec<Op> {
        let until = self.events + events;
        let mut ops = Vec::new();
        while self.events < until {
            ops.push(self.next_op());
        }
        ops
    }
}

/// Spare events generated past every solo stream: twenty passes' worth.
const SPARE_EVENTS: usize = 2_000;

/// One round of the serving tier's stream.
pub struct ServeRound {
    pub closed: Vec<Vec<Op>>,
    pub open: Vec<Vec<Op>>,
}

/// Everything one run feeds the program.
pub struct Inputs {
    pub objects: Vec<HyperRect>,
    /// Warm-up events of every solo index, then the measured index's
    /// epochs.
    pub solo_warmup: Vec<SpatialQuery>,
    pub solo_epochs: Vec<Vec<Op>>,
    /// Ordinals, among the measured events of the solo stream, at which
    /// its hotspot jumped.
    pub solo_shifts: Vec<usize>,
    /// Events past the measured stream, for the restart phase to move
    /// the index on with (see `solo::restart`). Not measured.
    pub solo_spare: Vec<SpatialQuery>,
    /// The mutation index's stream (after the same warm-up), in blocks.
    pub mutation_blocks: Vec<Vec<Op>>,
    /// The serving tier's own stream, drawn from the same distribution
    /// under another seed, in the order the tier sees it.
    pub serve_warmup: Vec<SpatialQuery>,
    pub serve_rounds: Vec<ServeRound>,
}

impl Inputs {
    /// Generates the inputs of `spec` for `seed` at `sizes`.
    pub fn generate(spec: &Spec, seed: u64, sizes: Sizes) -> Inputs {
        let objects = population(spec, seed, sizes.objects);

        let mut solo = OpStream::new(spec, seed, seed ^ 0x50_10, sizes.objects);
        let solo_warmup = (0..sizes.warmup_events)
            .map(|_| solo.next_event())
            .collect();
        let measured_from = solo.events;
        let solo_epochs = (0..sizes.solo_epochs)
            .map(|_| solo.next_epoch(sizes.epoch_events))
            .collect();
        let solo_shifts = solo
            .shifts
            .iter()
            .filter_map(|&at| at.checked_sub(measured_from))
            .collect();
        let solo_spare = (0..SPARE_EVENTS).map(|_| solo.next_event()).collect();

        // The mutation index has seen the solo warm-up; its own events
        // continue from there (on `hotspot_drift`, at the site the
        // warm-up stopped at).
        let mut mutation = OpStream::new(spec, seed, seed ^ 0xB1_0C, sizes.objects);
        mutation.events = sizes.warmup_events;
        mutation.mutation_share = BLOCK_MUTATION_SHARE;
        let mutation_blocks = (0..sizes.mutation_blocks)
            .map(|_| {
                // A block's events come first: they bring the index back
                // into the caches another index's epochs emptied, so the
                // timed mutations find it as warm as a mixed stream's do.
                let mut ops = mutation.next_ops(sizes.block_ops);
                ops.sort_by_key(|op| !matches!(op, Op::Event(_)));
                ops
            })
            .collect();

        let mut serve = OpStream::new(spec, seed, seed ^ 0x5E_2F_E0, sizes.objects);
        let serve_warmup = (0..sizes.warmup_events)
            .map(|_| serve.next_event())
            .collect();
        let per_round = |parts: usize| parts / ROUNDS;
        let serve_rounds = (0..ROUNDS)
            .map(|_| ServeRound {
                closed: (0..per_round(sizes.closed_epochs))
                    .map(|_| serve.next_epoch(sizes.epoch_events))
                    .collect(),
                open: (0..per_round(sizes.open_windows))
                    .map(|_| serve.next_ops(sizes.window_ops))
                    .collect(),
            })
            .collect();

        Inputs {
            objects,
            solo_warmup,
            solo_epochs,
            solo_shifts,
            solo_spare,
            mutation_blocks,
            serve_warmup,
            serve_rounds,
        }
    }

    /// Digest of the object bytes and of the three operation streams.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for rect in &self.objects {
            digest_rect(&mut d, rect);
        }
        for q in self.solo_warmup.iter().chain(&self.serve_warmup) {
            digest_query(&mut d, q);
        }
        let serve_ops = self
            .serve_rounds
            .iter()
            .flat_map(|r| r.closed.iter().chain(&r.open).flatten());
        for op in self
            .solo_epochs
            .iter()
            .chain(&self.mutation_blocks)
            .flatten()
            .chain(serve_ops)
        {
            match op {
                Op::Event(q) => digest_query(&mut d, q),
                Op::Insert(id, rect) => {
                    d.u32(0x1000_0001);
                    d.u32(id.0);
                    digest_rect(&mut d, rect);
                }
                Op::Remove(id) => {
                    d.u32(0x1000_0002);
                    d.u32(id.0);
                }
                Op::Update(id, rect) => {
                    d.u32(0x1000_0003);
                    d.u32(id.0);
                    digest_rect(&mut d, rect);
                }
            }
        }
        d.value()
    }
}

fn digest_rect(d: &mut Digest, rect: &HyperRect) {
    for iv in rect.intervals() {
        d.u32(iv.lo().to_bits());
        d.u32(iv.hi().to_bits());
    }
}

fn digest_query(d: &mut Digest, q: &SpatialQuery) {
    d.u32(match q {
        SpatialQuery::Intersection(_) => 1,
        SpatialQuery::Containment(_) => 2,
        SpatialQuery::Enclosure(_) => 3,
        SpatialQuery::PointEnclosing(_) => 4,
    });
    digest_rect(d, &q.window());
}

/// Digest of `spec`'s default-seed inputs at the canary sizes: what
/// `Spec::pinned_digest` records. A run recomputes it before timing
/// anything, so an edit to an `acx_workloads` generator cannot change a
/// workload unnoticed, whatever `--seed` the run itself uses.
pub fn canary_digest(spec: &Spec) -> u64 {
    Inputs::generate(spec, DEFAULT_SEED, CANARY).digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes {
        objects: 300,
        warmup_events: 40,
        epoch_events: 10,
        solo_epochs: 2 * ROUNDS,
        closed_epochs: ROUNDS,
        window_ops: 8,
        open_windows: ROUNDS,
        block_ops: 30,
        mutation_blocks: ROUNDS,
    };

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for spec in &SPECS {
            let a = Inputs::generate(spec, 7, SMALL).digest();
            let b = Inputs::generate(spec, 7, SMALL).digest();
            let c = Inputs::generate(spec, 8, SMALL).digest();
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn pinned_digests_hold() {
        for spec in &SPECS {
            assert_eq!(
                canary_digest(spec),
                spec.pinned_digest,
                "{}: inputs changed; if intended, pin {:#018x}",
                spec.name,
                canary_digest(spec)
            );
        }
    }

    #[test]
    fn sizes_scale_with_seconds_only() {
        let base = SPECS[0].sizes;
        assert_eq!(base.scaled(REF_SECONDS), base);
        let half = base.scaled(REF_SECONDS / 2);
        assert_eq!(half.solo_epochs, base.solo_epochs / 2);
        assert_eq!(half.epoch_events, base.epoch_events);
        assert_eq!(half.objects, base.objects);
        assert_eq!(half.warmup_events, base.warmup_events);
        let tiny = base.scaled(0);
        assert_eq!(tiny.solo_epochs, ROUNDS);
        assert_eq!(tiny.open_windows, ROUNDS);
        for spec in &SPECS {
            let s = spec.sizes;
            for parts in [
                s.solo_epochs,
                s.closed_epochs,
                s.open_windows,
                s.mutation_blocks,
            ] {
                assert_eq!(parts % ROUNDS, 0, "{}", spec.name);
            }
            assert_eq!(
                s.epoch_events % 100,
                0,
                "an epoch is whole reorganization periods"
            );
        }
    }

    #[test]
    fn every_epoch_holds_the_same_number_of_events() {
        for spec in &SPECS {
            let inputs = Inputs::generate(spec, 3, SMALL);
            let closed = inputs.serve_rounds.iter().flat_map(|r| &r.closed);
            for epoch in inputs.solo_epochs.iter().chain(closed) {
                let events = epoch.iter().filter(|op| matches!(op, Op::Event(_))).count();
                assert_eq!(events, SMALL.epoch_events, "{}", spec.name);
                assert!(matches!(epoch.last(), Some(Op::Event(_))));
            }
            assert_eq!(inputs.solo_epochs.len(), SMALL.solo_epochs);
            assert!(inputs
                .mutation_blocks
                .iter()
                .all(|b| b.len() == SMALL.block_ops));
        }
    }

    #[test]
    fn mutations_keep_ids_valid_and_the_population_steady() {
        let spec = spec("churn_wal").unwrap();
        let inputs = Inputs::generate(spec, 3, SMALL);
        for (stream, share) in [
            (&inputs.solo_epochs, 1.0 / 2.0),
            (&inputs.mutation_blocks, BLOCK_MUTATION_SHARE),
        ] {
            let mut live: std::collections::BTreeSet<u32> = (0..SMALL.objects as u32).collect();
            let (mut ops, mut mutations) = (0.0, 0.0);
            for op in stream.iter().flatten() {
                ops += 1.0;
                match op {
                    Op::Event(_) => continue,
                    Op::Insert(id, _) => assert!(live.insert(id.0), "insert of a live id"),
                    Op::Remove(id) => {
                        assert_eq!(live.first(), Some(&id.0), "removal takes the oldest");
                        live.remove(&id.0);
                    }
                    Op::Update(id, _) => assert!(live.contains(&id.0), "update of a dead id"),
                }
                mutations += 1.0;
            }
            assert!(
                (mutations / ops - share).abs() < 0.1,
                "{mutations} of {ops}"
            );
            assert!(live.len().abs_diff(SMALL.objects) < SMALL.objects / 5);
        }
    }

    #[test]
    fn hotspot_stream_records_its_jumps() {
        let spec = Spec {
            shift_every: 50,
            mutation_share: 0.0,
            ..*spec("hotspot_drift").unwrap()
        };
        let inputs = Inputs::generate(&spec, 5, SMALL);
        // 240 measured events after 40 of warm-up: jumps 50 apart, the
        // first 10 in.
        assert_eq!(inputs.solo_shifts.len(), 5);
        assert_eq!(inputs.solo_shifts[0], 10);
        assert!(inputs.solo_shifts.windows(2).all(|w| w[1] - w[0] == 50));
    }
}
