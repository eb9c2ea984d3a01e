//! The adaptive cost-based clustering index (paper §3).
//!
//! Objects live in a tree of materialized clusters, each holding its
//! members sequentially in a [`SegmentStore`] segment. Every cluster
//! carries a signature, access statistics, and a set of *virtual*
//! candidate subclusters. Periodically (every `reorg_period` queries) the
//! index reconsiders each cluster: merge it into its parent, or split off
//! the candidate subclusters whose materialization benefit is positive.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use acx_geom::scan::{count_candidates, scan_columns_loaded, QueryBounds, ScanScratch};
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery, OBJECT_ID_BYTES};
use acx_storage::{
    AccessStats, BackingStore, ClusterRecord, CostModel, FileStore, FlushPolicy, SegmentId,
    SegmentStore, Wal, WalError, WalRecord,
};

use crate::batch::StatsDelta;
use crate::candidates::{generate_candidates, CandHandle, StatsArena};
use crate::cost::{materialization_benefit, materialization_benefit_column, merging_benefit};
use crate::metrics::{
    ClusterSnapshot, QueryMetrics, QueryResult, RecoveryReport, ReorgProfile, ReorgReport,
};
use crate::signature::Signature;
use crate::{IndexConfig, IndexError};

/// Reusable per-query scratch arena for the matching phase: the query's
/// loaded bounds, the scan kernel's match buffer,
/// the result buffer, the cluster traversal stack, and the reference
/// loop's gather buffer. Buffers grow to the workload's high-water mark
/// and are then reused, so a warmed-up scratch lets
/// [`AdaptiveClusterIndex::query_with`] execute without allocating.
///
/// One scratch serves one thread: each concurrent reader brings its
/// own, and the sequential [`AdaptiveClusterIndex::execute`] path keeps
/// one inside the index.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// The query's comparison shape and per-dimension bounds, loaded
    /// once per exploration and shared by both kernels' every call.
    bounds: QueryBounds,
    /// Columnar kernel state (per-segment match indices).
    scan: ScanScratch,
    /// Matches of the last query, across all explored clusters.
    matches: Vec<ObjectId>,
    /// DFS stack over cluster slots.
    stack: Vec<u32>,
    /// Interleaved gather buffer of the [`IndexConfig::reference`] member loop.
    flat: Vec<Scalar>,
}

impl QueryScratch {
    /// An empty scratch; buffers are sized lazily by the first queries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Identifiers of the objects matched by the most recent query run
    /// through this scratch (cluster exploration order).
    pub fn matches(&self) -> &[ObjectId] {
        &self.matches
    }
}

const NO_PARENT: u32 = u32::MAX;

/// How many reorganization passes a merged-away signature is remembered
/// for thrash accounting: a materialization re-creating a signature
/// merged within this window counts as one completed split→merge→split
/// cycle ([`ReorgProfile::thrash_cycles`]). The optional
/// [`IndexConfig::merge_cooldown`] hysteresis reuses the same memory
/// (entries are retained for `max(THRASH_WINDOW, merge_cooldown)`
/// passes).
const THRASH_WINDOW: u64 = 8;

/// Relative deflation applied to the selection sweep's threshold floor
/// (see `split_scan_columnar`): large enough to dominate the few-ulp
/// rounding error of the floor and threshold expressions by four orders
/// of magnitude, small enough to stay a tight prefilter.
const FLOOR_SLACK: f64 = 1e-12;

/// Segments of less than two kernel blocks have no block to save.
const FOLD_MIN_MEMBERS: usize = 2 * acx_geom::scan::BLOCK;

/// Per-pass cost terms — see `AdaptiveClusterIndex::pass_costs`.
#[derive(Debug, Clone, Copy)]
struct PassCosts {
    /// Signature-check cost `A`.
    a: f64,
    /// Exploration-setup cost `B`.
    b: f64,
    /// Effective per-object cost `C` (`decision_c` at pass start).
    c: f64,
    /// Cost of moving one object between clusters, `2·C + M`.
    moved: f64,
    /// Reorganization pay-back horizon (queries).
    horizon: f64,
    /// Confidence factor `z`.
    z: f64,
}

/// The single definition of the move margin `n·(2·C + M) / horizon`,
/// with `moved = 2·C + M` the cost of moving one object — the per-call
/// method and every hoisted pass-loop use delegate here, so their float
/// results cannot drift apart.
#[inline]
fn move_margin_c(moved: f64, horizon: f64, n: usize) -> f64 {
    n as f64 * moved / horizon
}

/// The single definition of the confidence margin — see
/// `AdaptiveClusterIndex::confidence_margin` for the rationale.
#[inline]
fn confidence_margin_c(z: f64, c: f64, b: f64, p: f64, n_eff: f64, n_objects: usize) -> f64 {
    if z == 0.0 || n_eff <= 0.0 {
        return 0.0;
    }
    let variance = (p * (1.0 - p)).max(1.0 / n_eff) / n_eff;
    z * variance.sqrt() * (n_objects as f64 * c + b)
}

/// Relative tolerance under which two access probabilities count as tied
/// during insertion (paper §3.5: ties prefer the most specific cluster).
/// Exact float equality almost never holds once probabilities are nonzero
/// — decayed counters accumulate rounding — so the preference would
/// otherwise never fire in a warmed-up index.
const PROB_TIE_RELATIVE_EPS: f64 = 1e-9;

/// Whether two access probabilities are equal up to accumulated float
/// rounding (relative epsilon; exact zeros tie).
pub(crate) fn probabilities_tie(a: f64, b: f64) -> bool {
    (a - b).abs() <= PROB_TIE_RELATIVE_EPS * a.abs().max(b.abs())
}

/// One materialized cluster (paper §3.1).
#[derive(Debug)]
struct Cluster {
    signature: Signature,
    parent: Option<u32>,
    children: Vec<u32>,
    segment: SegmentId,
    /// The cluster's candidate statistics: a range of the index-wide
    /// [`StatsArena`]. The lazy-decay stamp travels with the range (see
    /// `AdaptiveClusterIndex::materialize_candidates`).
    candidates: CandHandle,
    /// Queries whose signature matched this cluster since `epoch_start`.
    q_count: u64,
    /// Global query counter value when this cluster's statistics epoch
    /// began (creation or last reorganization).
    epoch_start: u64,
    /// Exponentially decayed matching-query count of completed epochs.
    q_eff: f64,
    /// Exponentially decayed length (in queries) of completed epochs —
    /// the denominator paired with `q_eff`.
    weight: f64,
}

/// Cost-based adaptive clustering index over multidimensional extended
/// objects — the paper's primary contribution.
///
/// ```
/// use acx_core::{AdaptiveClusterIndex, IndexConfig};
/// use acx_geom::{HyperRect, ObjectId, SpatialQuery};
///
/// let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
/// let obj = HyperRect::from_bounds(&[0.1, 0.6], &[0.3, 0.9]).unwrap();
/// index.insert(ObjectId(1), obj).unwrap();
/// let window = HyperRect::from_bounds(&[0.0, 0.5], &[0.2, 1.0]).unwrap();
/// let found = index.execute(&SpatialQuery::intersection(window));
/// assert_eq!(found.matches, vec![ObjectId(1)]);
/// ```
pub struct AdaptiveClusterIndex {
    config: IndexConfig,
    model: CostModel,
    store: SegmentStore,
    /// The index-wide candidate statistics slabs, one range per
    /// cluster. Compacted by the reorganization pass.
    stats_arena: StatsArena,
    clusters: Vec<Option<Cluster>>,
    free_slots: Vec<u32>,
    root: u32,
    /// Segment slot → the slot of the cluster that owns the segment. An
    /// object's cluster is found through its segment, read from the
    /// store's position map: the index keeps no id map of its own.
    /// Written where a cluster gets its segment; a merged-away
    /// cluster's entry is stale until the store reuses the segment slot.
    segment_cluster: Vec<u32>,
    total_queries: u64,
    queries_since_reorg: u64,
    /// Bumped whenever a reorganization changes the clustering (merges
    /// may recycle cluster slots); stamps [`StatsDelta`]s so stale
    /// per-cluster increments are never misattributed.
    structure_epoch: u64,
    reorganizations: u64,
    total_merges: u64,
    total_splits: u64,
    /// Verified bytes in the current epoch (early-exit accounted).
    epoch_verified_bytes: u64,
    /// Full-object bytes of the objects verified in the current epoch.
    epoch_full_bytes: u64,
    /// Exponentially decayed verified-byte history.
    hist_verified_bytes: f64,
    /// Exponentially decayed full-byte history.
    hist_full_bytes: f64,
    /// DFS stack of `insert`'s descent, `(slot, depth)`, kept for its
    /// capacity: a root with thousands of children regrew a fresh one a
    /// dozen times per insert.
    insert_stack: Vec<(u32, usize)>,
    /// Scratch arena reused by `execute`.
    query_scratch: QueryScratch,
    /// The clusters `execute`'s last query explored, in exploration
    /// order (kept for its capacity).
    explored_scratch: Vec<u32>,
    /// Completed statistics epochs (one per reorganization pass) — the
    /// clock the per-cluster `cand_stamp`s lag behind.
    stats_epoch: u64,
    /// Buffers reused by the reorganization pass.
    reorg_scratch: ReorgScratch,
    /// Work profile of the most recent reorganization pass.
    last_profile: ReorgProfile,
    /// Recently merged-away cluster signatures (rendered bytes → the
    /// pass count at merge time), feeding the thrash counter and the
    /// optional [`IndexConfig::merge_cooldown`] hysteresis. Pruned each
    /// pass to `max(THRASH_WINDOW, merge_cooldown)` passes of history.
    recent_merges: HashMap<Vec<u8>, u64>,
    /// Thrash cycles detected by the pass currently running.
    pass_thrash: u64,
    /// Objects moved between clusters by the pass currently running.
    pass_moved: u64,
    /// Cool-down vetoes applied by the pass currently running.
    pass_cooldown_blocked: u64,
    /// Cumulative thrash cycles across all passes.
    total_thrash: u64,
    /// Id of the last completed checkpoint (0 = never checkpointed).
    /// Persisted in the checkpoint META record and stamped into the
    /// WAL header at reset time, so recovery can tell a live log
    /// suffix from a log whose records the checkpoint it loads already
    /// absorbed (the crash window between checkpoint save and WAL
    /// truncation).
    checkpoint_id: u64,
    /// The attached write-ahead log, when durability is enabled. Every
    /// structural mutation is appended (and, per the flush policy, made
    /// durable) *before* it is applied in memory.
    wal: Option<Wal>,
    /// First WAL failure swallowed inside a reorganization pass: the
    /// pass cannot abort between its atomic units without losing the
    /// log/memory correspondence, so it completes in memory, the log is
    /// poisoned, and the failure is surfaced here for the caller
    /// ([`AdaptiveClusterIndex::take_wal_failure`]).
    wal_failure: Option<WalError>,
    /// Test-only fault hook fired at the boundaries of a pass's atomic
    /// structural units ([`ReorgFaultPoint`]); `None` in production.
    reorg_fault_hook: Option<Box<dyn FnMut(ReorgFaultPoint) + Send + Sync>>,
    /// Cumulative wall-clock nanoseconds spent inside
    /// [`AdaptiveClusterIndex::reorganize`] — the serving-path stall a
    /// pass causes, surfaced per shard by the serving tier.
    reorg_wall_ns: u64,
    /// Set while [`AdaptiveClusterIndex::recover`] replays the log: the
    /// write path leaves segments as they fall and `recover` orders
    /// every one of them once, after the last record.
    replaying: bool,
}

/// Boundaries of the atomic structural units of a reorganization pass.
/// The test-only fault hook
/// ([`AdaptiveClusterIndex::set_reorg_fault_hook`]) fires at each one;
/// panicking there unwinds out of the pass *between* units, which must
/// leave the index valid and queryable — the contract the panic-safety
/// suite asserts with `catch_unwind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorgFaultPoint {
    /// About to merge a cluster into its parent.
    BeforeMerge,
    /// A merge completed.
    AfterMerge,
    /// About to materialize a candidate subcluster.
    BeforeMaterialize,
    /// A materialization completed.
    AfterMaterialize,
    /// The pass is about to close the statistics epoch.
    BeforeEpochClose,
}

/// Reusable buffers of the reorganization pass: its slot snapshot and
/// the per-candidate benefit column of the cluster currently being
/// scanned. Like [`QueryScratch`], buffers grow to the workload's
/// high-water mark and are then reused, so a warmed-up pass allocates
/// nothing.
#[derive(Debug, Default)]
struct ReorgScratch {
    /// The pass's slot snapshot (live clusters at pass start).
    snapshot: Vec<u32>,
    /// Candidate materialization benefits (one per candidate).
    benefits: Vec<f64>,
    /// The debug tripwire's copy of a screened-out cluster's query
    /// counters, put back once its scan has run.
    #[cfg(debug_assertions)]
    saved_q: Vec<u32>,
    #[cfg(debug_assertions)]
    saved_q_eff: Vec<f64>,
}

impl ReorgScratch {
    /// Pre-sizes the benefit column to the widest candidate set any
    /// cluster can own (`dims · f(f+1)/2` virtual subclusters), so a
    /// settled pass never grows it mid-scan: the first scan that prices
    /// its column — possibly long after warm-up, once the screen stops
    /// ruling a cluster out — must not be the one that pays the
    /// allocation. The tripwire's copies are sized for the most
    /// candidates a specialized cluster can own (`dims · f²`).
    fn with_candidate_capacity(config: &IndexConfig) -> Self {
        #[cfg(debug_assertions)]
        let most = config.dims * (config.division_factor as usize).pow(2);
        Self {
            benefits: Vec::with_capacity(config.candidates_per_cluster()),
            #[cfg(debug_assertions)]
            saved_q: Vec::with_capacity(most),
            #[cfg(debug_assertions)]
            saved_q_eff: Vec::with_capacity(most),
            ..Self::default()
        }
    }
}

/// What the matching phase reads of the index, borrowed field by field:
/// [`AdaptiveClusterIndex::execute`] lends the statistics arena to its
/// sink mutably while the traversal walks the cluster tree and the
/// segment store.
struct ReadView<'a> {
    config: &'a IndexConfig,
    model: &'a CostModel,
    store: &'a SegmentStore,
    clusters: &'a [Option<Cluster>],
    root: u32,
}

/// Where the statistics of one exploration go. There is one traversal
/// and one compare-and-count kernel; the sinks differ only in the
/// counter column the kernel adds into, and all three leave the index
/// in the same state once a delta is applied.
enum StatsSink<'a> {
    /// `query*`: nothing is recorded.
    None,
    /// `query_recorded*`: into a [`StatsDelta`], applied later under
    /// the exclusive borrow.
    Delta {
        arena: &'a StatsArena,
        delta: &'a mut StatsDelta,
    },
    /// `execute`: straight into the arena's `q` column, each cluster
    /// caught up on its lazily skipped decay epochs first. The explored
    /// slots are listed for the caller, which owns the per-cluster
    /// counters.
    Arena {
        arena: &'a mut StatsArena,
        stats_epoch: u64,
        gamma: f64,
        explored: &'a mut Vec<u32>,
    },
}

impl StatsSink<'_> {
    /// Counts `query` on a cluster whose signature it matched and on
    /// each of the cluster's candidates it matches: through the kernel,
    /// or — under [`IndexConfig::reference`] — candidate by candidate.
    #[inline]
    fn record(
        &mut self,
        slot: u32,
        handle: CandHandle,
        query: &SpatialQuery,
        bounds: &QueryBounds,
        reference: bool,
    ) {
        match self {
            StatsSink::None => {}
            StatsSink::Delta { arena, delta } => {
                let cands = arena.slice(handle);
                let recorded = delta.cluster_mut(slot, cands.len());
                recorded.q_count += 1;
                if reference {
                    for ci in 0..cands.len() {
                        if cands.matches_query(ci, query) {
                            recorded.bump_candidate(ci as u32);
                        }
                    }
                } else {
                    let counters = &mut recorded.cand_q[..cands.len()];
                    count_candidates(bounds, &cands.columns(), counters);
                }
            }
            StatsSink::Arena {
                arena,
                stats_epoch,
                gamma,
                explored,
            } => {
                let mut cands = arena.slice_mut(handle);
                cands.catch_up_to(*stats_epoch, *gamma);
                if reference {
                    for ci in 0..cands.len() {
                        if cands.as_slice().matches_query(ci, query) {
                            cands.add_q(ci, 1);
                        }
                    }
                } else {
                    cands.count_query(bounds);
                }
                explored.push(slot);
            }
        }
    }
}

impl ReadView<'_> {
    /// The matching phase shared by every query entry point (paper
    /// §3.6, Fig. 5): explores every materialized cluster whose
    /// signature matches the query, hands it to the sink, and verifies
    /// its members sequentially, leaving the matches in `scratch`.
    ///
    /// Member verification and candidate matching follow
    /// [`IndexConfig::reference`]: the batch kernels over the store's
    /// member columns and the candidate bound columns, with the
    /// query's bounds loaded once, or the object-at-a-time reference
    /// loops. Both are bit-identical in matches, match order, and every
    /// statistic. Nothing is allocated once the scratch's buffers have
    /// grown to the workload's high-water mark.
    fn explore(
        &self,
        query: &SpatialQuery,
        mut sink: StatsSink<'_>,
        scratch: &mut QueryScratch,
    ) -> QueryMetrics {
        let started = Instant::now();
        let mut stats = AccessStats::new();
        let object_bytes = self.store.object_bytes() as u64;
        let reference = self.config.reference;
        scratch.matches.clear();
        scratch.bounds.load(query);
        scratch.stack.clear();
        scratch.stack.push(self.root);
        while let Some(slot) = scratch.stack.pop() {
            stats.signature_checks += 1;
            let cluster = self.clusters[slot as usize]
                .as_ref()
                .expect("cluster slot is live");
            if !cluster.signature.matches_query(query) {
                continue;
            }
            sink.record(slot, cluster.candidates, query, &scratch.bounds, reference);
            let n = self.store.segment_len(cluster.segment);
            stats.clusters_explored += 1;
            stats.seeks += 1;
            stats.transfer_bytes += n as u64 * object_bytes;
            stats.objects_verified += n as u64;
            let ids = self.store.ids(cluster.segment);
            if reference {
                for (idx, &oid) in ids.iter().enumerate() {
                    self.store
                        .read_object_into(cluster.segment, idx, &mut scratch.flat);
                    let outcome = query.matches_flat(&scratch.flat);
                    stats.verified_bytes +=
                        OBJECT_ID_BYTES as u64 + 8 * outcome.dims_checked as u64;
                    if outcome.matched {
                        scratch.matches.push(ObjectId(oid));
                    }
                }
            } else {
                let columns = self.store.columns(cluster.segment);
                let outcome = scan_columns_loaded(&scratch.bounds, &columns, &mut scratch.scan);
                stats.verified_bytes += outcome.verified_bytes();
                for &idx in scratch.scan.matches() {
                    scratch.matches.push(ObjectId(ids[idx as usize]));
                }
            }
            scratch.stack.extend_from_slice(&cluster.children);
        }

        let priced_ms = self.model.price(&stats);
        QueryMetrics {
            stats,
            priced_ms,
            wall: started.elapsed(),
        }
    }
}

impl AdaptiveClusterIndex {
    /// Creates an empty index: a single root cluster whose general
    /// signature accepts any spatial object.
    pub fn new(config: IndexConfig) -> Result<Self, IndexError> {
        config.validate()?;
        let model = config.cost_model();
        let mut store = SegmentStore::with_reserve(config.dims, config.reserve_fraction);
        let segment = store.create(16);
        let signature = Signature::root(config.dims);
        let mut stats_arena = StatsArena::new();
        let candidates =
            stats_arena.alloc(&generate_candidates(&signature, config.division_factor));
        let root = Cluster {
            signature,
            parent: None,
            children: Vec::new(),
            segment,
            candidates,
            q_count: 0,
            epoch_start: 0,
            q_eff: 0.0,
            weight: 0.0,
        };
        let reorg_scratch = ReorgScratch::with_candidate_capacity(&config);
        let mut segment_cluster = Vec::new();
        assign_segment(&mut segment_cluster, segment, 0);
        Ok(Self {
            config,
            model,
            store,
            stats_arena,
            clusters: vec![Some(root)],
            free_slots: Vec::new(),
            root: 0,
            segment_cluster,
            total_queries: 0,
            queries_since_reorg: 0,
            structure_epoch: 0,
            reorganizations: 0,
            total_merges: 0,
            total_splits: 0,
            epoch_verified_bytes: 0,
            epoch_full_bytes: 0,
            hist_verified_bytes: 0.0,
            hist_full_bytes: 0.0,
            insert_stack: Vec::new(),
            query_scratch: QueryScratch::new(),
            explored_scratch: Vec::new(),
            stats_epoch: 0,
            reorg_scratch,
            last_profile: ReorgProfile::default(),
            recent_merges: HashMap::new(),
            pass_thrash: 0,
            pass_moved: 0,
            pass_cooldown_blocked: 0,
            total_thrash: 0,
            checkpoint_id: 0,
            wal: None,
            wal_failure: None,
            reorg_fault_hook: None,
            reorg_wall_ns: 0,
            replaying: false,
        })
    }

    /// The index configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The cost model pricing this index's storage scenario.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Dimensionality of indexed objects.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the index holds no objects.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of materialized clusters (including the root).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len() - self.free_slots.len()
    }

    /// Total queries executed so far.
    pub fn total_queries(&self) -> u64 {
        self.total_queries
    }

    /// Reorganization passes run so far.
    pub fn reorganizations(&self) -> u64 {
        self.reorganizations
    }

    /// Total merge operations across all reorganizations.
    pub fn total_merges(&self) -> u64 {
        self.total_merges
    }

    /// Total materializations across all reorganizations.
    pub fn total_splits(&self) -> u64 {
        self.total_splits
    }

    /// Total split→merge→split thrash cycles across all reorganizations:
    /// materializations that re-created a cluster signature merged away
    /// a few passes earlier (see [`ReorgProfile::thrash_cycles`]).
    pub fn total_thrash(&self) -> u64 {
        self.total_thrash
    }

    /// Whether the object id is currently indexed.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.store.contains_object(id.raw())
    }

    /// All indexed object ids, in arbitrary order. Pair with
    /// [`AdaptiveClusterIndex::get`] to enumerate the full contents —
    /// e.g. to diff two indexes after crash recovery.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.store.object_ids().map(ObjectId)
    }

    fn cluster(&self, slot: u32) -> &Cluster {
        self.clusters[slot as usize]
            .as_ref()
            .expect("cluster slot is live")
    }

    fn cluster_mut(&mut self, slot: u32) -> &mut Cluster {
        self.clusters[slot as usize]
            .as_mut()
            .expect("cluster slot is live")
    }

    /// Access probability of a cluster: decayed history plus the current
    /// (partial) epoch.
    fn access_probability(&self, c: &Cluster) -> f64 {
        let epoch_len = self.total_queries.saturating_sub(c.epoch_start) as f64;
        let denom = c.weight + epoch_len;
        if denom <= 0.0 {
            0.0
        } else {
            (c.q_eff + c.q_count as f64) / denom
        }
    }

    /// Measured early-exit verification fraction (paper footnote 4):
    /// verified bytes over full-object bytes among verified objects,
    /// smoothed across epochs. `1.0` until the first query provides data.
    ///
    /// Verifying an object stops at its first failing dimension, so the
    /// *effective* per-object verification cost is usually a small
    /// fraction of `C`'s full-object estimate; reorganization decisions
    /// use the effective value to avoid over-splitting.
    pub fn verify_fraction(&self) -> f64 {
        let denom = self.hist_full_bytes + self.epoch_full_bytes as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        ((self.hist_verified_bytes + self.epoch_verified_bytes as f64) / denom).clamp(0.0, 1.0)
    }

    /// The effective `C` used by reorganization decisions: the measured
    /// early-exit fraction applies to the verification component, while
    /// the disk-transfer component always moves whole objects.
    fn decision_c(&self) -> f64 {
        self.model.c_verify() * self.verify_fraction() + self.model.c_transfer()
    }

    /// The cost terms of one reorganization pass, hoisted: every term is
    /// deterministic while a pass runs (no byte counter moves between
    /// its evaluations), so pricing thousands of candidates through this
    /// struct is bit-identical to the per-call methods — it just skips
    /// re-deriving `decision_c` (a `verify_fraction` division) each
    /// time.
    fn pass_costs(&self) -> PassCosts {
        PassCosts {
            a: self.model.a(),
            b: self.model.b(),
            c: self.decision_c(),
            moved: self.move_cost(),
            horizon: self.config.reorg_cost_horizon,
            z: self.config.confidence_z,
        }
    }

    /// What moving one object between clusters costs: reading and
    /// writing it through the verification path (`2·C`, the paper-era
    /// estimate and all the paper's platform charges) plus the
    /// platform's `M` — the segment, candidate-count and map updates
    /// `materialize_candidate` and `merge_cluster` spend per object,
    /// measured by `scan_bench --cost-terms`.
    fn move_cost(&self) -> f64 {
        2.0 * self.decision_c() + self.model.m()
    }

    /// Hysteresis threshold: a reorganization that moves `n` objects must
    /// save more than the move cost `n·(2·C + M)` amortized over the
    /// configured pay-back horizon.
    fn move_margin(&self, n: usize) -> f64 {
        move_margin_c(self.move_cost(), self.config.reorg_cost_horizon, n)
    }

    /// Statistical margin: `z` standard errors of a benefit estimate whose
    /// dominant noise source is the sampled access probability `p` over
    /// `n_eff` effective observations, with sensitivity `∂benefit/∂p ≈
    /// n·C + B`. Acting only on statistically significant benefits stops
    /// sampling noise from ping-ponging marginal clusters.
    fn confidence_margin(&self, p: f64, n_eff: f64, n_objects: usize) -> f64 {
        confidence_margin_c(
            self.config.confidence_z,
            self.decision_c(),
            self.model.b(),
            p,
            n_eff,
            n_objects,
        )
    }

    /// Inserts a new object (paper §3.5, Fig. 4): among all materialized
    /// clusters whose signature accepts the object, the one with the
    /// lowest access probability is chosen (ties broken towards the most
    /// specific cluster).
    pub fn insert(&mut self, id: ObjectId, rect: HyperRect) -> Result<(), IndexError> {
        if rect.dims() != self.config.dims {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dims,
                actual: rect.dims(),
            });
        }
        if self.store.contains_object(id.raw()) {
            return Err(IndexError::DuplicateObject(id.raw()));
        }
        let mut flat = rect.to_flat();
        // Write-ahead: the record is logged (and, per the flush policy,
        // durable) before any in-memory state moves, so a logged insert
        // either fully applies or — on append failure — not at all. The
        // record takes the coordinates and gives them back: no copy.
        if self.wal.is_some() {
            let record = WalRecord::Insert {
                id: id.raw(),
                coords: flat,
            };
            self.wal_append(&record)?;
            let WalRecord::Insert { coords, .. } = record else {
                unreachable!("built as an insert above")
            };
            flat = coords;
        }

        // Backward compatibility makes acceptance hereditary: descend the
        // tree, pruning subtrees whose root rejects the object.
        let mut best: Option<(u32, f64, usize)> = None; // (slot, p, depth)
        let mut stack = std::mem::take(&mut self.insert_stack);
        stack.clear();
        stack.push((self.root, 0));
        while let Some((slot, depth)) = stack.pop() {
            let cluster = self.cluster(slot);
            if !cluster.signature.accepts_flat(&flat) {
                continue;
            }
            let p = self.access_probability(cluster);
            let better = match best {
                None => true,
                Some((_, bp, bd)) => {
                    if probabilities_tie(p, bp) {
                        depth > bd
                    } else {
                        p < bp
                    }
                }
            };
            if better {
                best = Some((slot, p, depth));
            }
            for &child in &cluster.children {
                stack.push((child, depth + 1));
            }
        }
        self.insert_stack = stack;
        let (slot, _, _) = best.expect("root accepts every object");

        let cluster = self.clusters[slot as usize]
            .as_mut()
            .expect("cluster slot is live");
        let segment = cluster.segment;
        self.stats_arena.slice_mut(cluster.candidates).record_member(&flat);
        self.store.push(segment, id.raw(), &flat);
        self.fold_if_due(segment);
        Ok(())
    }

    /// Keeps segments in key order from the write path: the mutation
    /// that brings a segment's disorder ([`SegmentStore::disorder`]) to
    /// half its length — a tail as long as the ordered run, or a stray
    /// for every eighth member — pays for ordering it, about 50 ns a
    /// member, so that no query and no reorganization pass ever does.
    /// A growing segment is thus ordered once per doubling, and one that
    /// churns in place once per eighth of its members removed. (Passes
    /// keep the order they find: a child is built in key order,
    /// extraction preserves it, a merged child arrives as one ordered
    /// run.)
    fn fold_if_due(&mut self, segment: SegmentId) {
        let due = self.store.segment_len(segment).max(FOLD_MIN_MEMBERS);
        if !self.replaying && 2 * self.store.disorder(segment) >= due {
            self.store.order(segment);
        }
    }

    /// Brings a cluster's candidate counters up to the current
    /// statistics epoch by replaying every close it skipped — the lazy
    /// half of [`AdaptiveClusterIndex::decay_statistics`]. The replay
    /// ([`crate::candidates::CandidateSliceMut::catch_up`]) is bit-identical to having folded
    /// the counters eagerly at each close, so lazily decayed clusters
    /// are indistinguishable from eagerly decayed ones at every read.
    fn materialize_candidates(&mut self, slot: u32) {
        let handle = self.cluster(slot).candidates;
        self.stats_arena
            .slice_mut(handle)
            .catch_up_to(self.stats_epoch, self.config.stats_decay);
    }

    /// Removes an object, returning its rectangle. The object is located
    /// through the store's position map in O(1) — no segment scan — and
    /// its cluster through its segment; an unknown id fails before
    /// anything is logged.
    pub fn remove(&mut self, id: ObjectId) -> Result<HyperRect, IndexError> {
        let (segment, idx) = self
            .store
            .position_of(id.raw())
            .ok_or(IndexError::UnknownObject(id.raw()))?;
        self.wal_append(&WalRecord::Remove { id: id.raw() })?;
        let flat: Vec<Scalar> = self.store.object_flat(segment, idx);
        let cluster = self.cluster(self.segment_cluster[segment.0 as usize]);
        debug_assert_eq!(cluster.segment, segment);
        let handle = cluster.candidates;
        self.stats_arena.slice_mut(handle).unrecord_member(&flat);
        self.store.swap_remove(segment, idx);
        self.fold_if_due(segment);
        Ok(HyperRect::from_flat(&flat)?)
    }

    /// Returns the rectangle of an indexed object, located through the
    /// store's position map in O(1) — no per-object work at any index
    /// size.
    pub fn get(&self, id: ObjectId) -> Option<HyperRect> {
        let (segment, idx) = self.store.position_of(id.raw())?;
        HyperRect::from_flat(&self.store.object_flat(segment, idx)).ok()
    }

    /// Replaces the rectangle of an existing object.
    pub fn update(&mut self, id: ObjectId, rect: HyperRect) -> Result<HyperRect, IndexError> {
        if rect.dims() != self.config.dims {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dims,
                actual: rect.dims(),
            });
        }
        if !self.store.contains_object(id.raw()) {
            return Err(IndexError::UnknownObject(id.raw()));
        }
        if self.wal.is_some() {
            self.wal_append(&WalRecord::Update {
                id: id.raw(),
                coords: rect.to_flat(),
            })?;
        }
        // One logical mutation, one WAL record: detach the log so the
        // internal remove+insert pair does not log again.
        let wal = self.wal.take();
        let result = self.remove(id).and_then(|old| {
            self.insert(id, rect)?;
            Ok(old)
        });
        self.wal = wal;
        result
    }

    fn check_query_dims(&self, query: &SpatialQuery) -> Result<(), IndexError> {
        if query.dims() != self.config.dims {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dims,
                actual: query.dims(),
            });
        }
        Ok(())
    }

    /// What the matching phase reads of the index.
    fn read_view(&self) -> ReadView<'_> {
        ReadView {
            config: &self.config,
            model: &self.model,
            store: &self.store,
            clusters: &self.clusters,
            root: self.root,
        }
    }

    /// The matching phase of the `&self` entry points
    /// ([`ReadView::explore`]): read-only, or — when `delta` is given —
    /// recording the statistics the execution would have written into
    /// it instead of mutating the index.
    fn explore(
        &self,
        query: &SpatialQuery,
        delta: Option<&mut StatsDelta>,
        scratch: &mut QueryScratch,
    ) -> QueryMetrics {
        let Some(delta) = delta else {
            return self.read_view().explore(query, StatsSink::None, scratch);
        };
        match delta.epoch {
            None => delta.epoch = Some(self.structure_epoch),
            Some(e) => assert_eq!(
                e, self.structure_epoch,
                "StatsDelta was recorded against a different clustering state"
            ),
        }
        let sink = StatsSink::Delta {
            arena: &self.stats_arena,
            delta: &mut *delta,
        };
        let metrics = self.read_view().explore(query, sink, scratch);
        delta.queries += 1;
        delta.verified_bytes += metrics.stats.verified_bytes;
        delta.full_bytes += metrics.stats.objects_verified * self.store.object_bytes() as u64;
        metrics
    }

    /// Executes a spatial selection **read-only**: identical match set and
    /// access metrics to [`AdaptiveClusterIndex::execute`], but no
    /// statistics are recorded and no reorganization can trigger. Because
    /// it takes `&self`, any number of `query` calls may run concurrently
    /// from threads sharing the index.
    ///
    /// ```
    /// use acx_core::{AdaptiveClusterIndex, IndexConfig};
    /// use acx_geom::{HyperRect, ObjectId, SpatialQuery};
    ///
    /// let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    /// index.insert(ObjectId(1), HyperRect::unit(2)).unwrap();
    /// let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
    /// let (a, b) = std::thread::scope(|s| {
    ///     let (shared, q) = (&index, &q); // no `mut`: readers share the index
    ///     let a = s.spawn(move || shared.query(q).matches);
    ///     let b = s.spawn(move || shared.query(q).matches);
    ///     (a.join().unwrap(), b.join().unwrap())
    /// });
    /// assert_eq!(a, vec![ObjectId(1)]);
    /// assert_eq!(a, b);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's; use
    /// [`AdaptiveClusterIndex::try_query`] for a fallible variant.
    pub fn query(&self, query: &SpatialQuery) -> QueryResult {
        self.try_query(query)
            .unwrap_or_else(|e| panic!("{}", Self::dims_panic(&e)))
    }

    /// Fallible variant of [`AdaptiveClusterIndex::query`]: returns
    /// [`IndexError::DimensionMismatch`] instead of panicking.
    pub fn try_query(&self, query: &SpatialQuery) -> Result<QueryResult, IndexError> {
        self.check_query_dims(query)?;
        let mut scratch = QueryScratch::new();
        let metrics = self.explore(query, None, &mut scratch);
        Ok(QueryResult {
            matches: std::mem::take(&mut scratch.matches),
            metrics,
        })
    }

    /// Zero-allocation variant of [`AdaptiveClusterIndex::query`]: the
    /// matching phase runs entirely inside the caller-provided scratch
    /// arena and the matches are read back through
    /// [`QueryScratch::matches`]. Once the scratch's buffers have grown
    /// to the workload's high-water mark, repeated calls allocate
    /// nothing — the hot serving loop for callers that do not need owned
    /// results.
    ///
    /// ```
    /// use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch};
    /// use acx_geom::{HyperRect, ObjectId, SpatialQuery};
    ///
    /// let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    /// index.insert(ObjectId(1), HyperRect::unit(2)).unwrap();
    /// let mut scratch = QueryScratch::new();
    /// let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
    /// let metrics = index.query_with(&q, &mut scratch);
    /// assert_eq!(scratch.matches(), &[ObjectId(1)]);
    /// assert_eq!(metrics.stats.objects_verified, 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's.
    pub fn query_with(&self, query: &SpatialQuery, scratch: &mut QueryScratch) -> QueryMetrics {
        self.check_query_dims(query)
            .unwrap_or_else(|e| panic!("{}", Self::dims_panic(&e)));
        self.explore(query, None, scratch)
    }

    /// Read-only execution that additionally records the statistics the
    /// query would have written into `delta`. Apply the delta later with
    /// [`AdaptiveClusterIndex::apply_stats`] to make the adaptive
    /// reorganization see the queries exactly as if they had been run via
    /// [`AdaptiveClusterIndex::execute`].
    ///
    /// The first recorded query stamps the delta with the index's current
    /// structural epoch, so one delta never mixes queries recorded across
    /// a reorganization that changed the clustering.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's, or if
    /// `delta` already holds queries recorded against a different
    /// clustering state.
    pub fn query_recorded(&self, query: &SpatialQuery, delta: &mut StatsDelta) -> QueryResult {
        let mut scratch = QueryScratch::new();
        let metrics = self.query_recorded_with(query, delta, &mut scratch);
        QueryResult {
            matches: std::mem::take(&mut scratch.matches),
            metrics,
        }
    }

    /// [`AdaptiveClusterIndex::query_recorded`] through a reusable
    /// scratch arena: matches land in [`QueryScratch::matches`] and a
    /// warmed-up (scratch, delta) pair records queries without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Same conditions as [`AdaptiveClusterIndex::query_recorded`].
    pub fn query_recorded_with(
        &self,
        query: &SpatialQuery,
        delta: &mut StatsDelta,
        scratch: &mut QueryScratch,
    ) -> QueryMetrics {
        self.check_query_dims(query)
            .unwrap_or_else(|e| panic!("{}", Self::dims_panic(&e)));
        self.explore(query, Some(delta), scratch)
    }

    /// Applies statistics recorded by
    /// [`AdaptiveClusterIndex::query_recorded`], then runs a
    /// reorganization pass if the configured `reorg_period` has elapsed.
    ///
    /// Apply a delta before the next reorganization. If a reorganization
    /// *changed* the clustering in between, the delta is stale: its
    /// per-cluster increments are dropped (merges recycle cluster slots,
    /// so applying them could credit unrelated clusters), while the
    /// global query and byte totals — which stay meaningful — are still
    /// counted.
    pub fn apply_stats(&mut self, delta: &StatsDelta) {
        if delta.epoch.is_none_or(|e| e == self.structure_epoch) {
            // Only the touched list carries increments: a reused delta
            // (see [`StatsDelta::clear`]) may retain zeroed entries for
            // clusters of earlier epochs whose slots were since recycled
            // or freed, but those are not on the list. Each touched
            // cluster replays any lazily skipped decay epochs before the
            // new increments land on it.
            for &slot in &delta.touched {
                let recorded = &delta.clusters[slot as usize];
                let handle = self.cluster(slot).candidates;
                let mut cands = self.stats_arena.slice_mut(handle);
                cands.catch_up_to(self.stats_epoch, self.config.stats_decay);
                cands.add_q_slice(&recorded.cand_q);
                self.cluster_mut(slot).q_count += recorded.q_count;
            }
        }
        self.close_queries(delta.queries, delta.verified_bytes, delta.full_bytes);
    }

    /// The tail of every statistics-writing path: counts the queries
    /// and the bytes they verified into the running epoch, then runs a
    /// reorganization pass if the configured `reorg_period` has elapsed.
    fn close_queries(&mut self, queries: u64, verified_bytes: u64, full_bytes: u64) {
        self.total_queries += queries;
        self.epoch_verified_bytes += verified_bytes;
        self.epoch_full_bytes += full_bytes;
        self.queries_since_reorg += queries;
        if self.config.reorg_period > 0 && self.queries_since_reorg >= self.config.reorg_period {
            self.reorganize();
        }
    }

    fn dims_panic(e: &IndexError) -> String {
        match e {
            IndexError::DimensionMismatch { expected, actual } => {
                format!("query dimensionality {actual} != index dimensionality {expected}")
            }
            other => other.to_string(),
        }
    }

    /// Executes a spatial selection (paper §3.6, Fig. 5) and maintains
    /// the statistics of explored clusters and their candidate
    /// subclusters, in place: the one traversal every entry point shares,
    /// with the statistics arena as its sink. It leaves the index
    /// exactly where
    /// [`AdaptiveClusterIndex::query_recorded_with`] followed by
    /// [`AdaptiveClusterIndex::apply_stats`] would.
    ///
    /// When `reorg_period` is non-zero, a cluster reorganization pass runs
    /// automatically every `reorg_period` executed queries.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the index's; use
    /// [`AdaptiveClusterIndex::try_execute`] for a fallible variant.
    pub fn execute(&mut self, query: &SpatialQuery) -> QueryResult {
        self.try_execute(query)
            .unwrap_or_else(|e| panic!("{}", Self::dims_panic(&e)))
    }

    /// Fallible variant of [`AdaptiveClusterIndex::execute`]: returns
    /// [`IndexError::DimensionMismatch`] instead of panicking.
    ///
    /// The matching phase runs through the index-owned scratch arena,
    /// so the only per-query allocation left is the returned match
    /// vector.
    pub fn try_execute(&mut self, query: &SpatialQuery) -> Result<QueryResult, IndexError> {
        self.check_query_dims(query)?;
        // Move the scratch out (pointer swaps, not allocations) and
        // borrow the index field by field: the traversal reads the
        // tree and the store while the sink writes the arena.
        let mut scratch = std::mem::take(&mut self.query_scratch);
        let mut explored = std::mem::take(&mut self.explored_scratch);
        explored.clear();
        let view = ReadView {
            config: &self.config,
            model: &self.model,
            store: &self.store,
            clusters: &self.clusters,
            root: self.root,
        };
        let sink = StatsSink::Arena {
            arena: &mut self.stats_arena,
            stats_epoch: self.stats_epoch,
            gamma: self.config.stats_decay,
            explored: &mut explored,
        };
        let metrics = view.explore(query, sink, &mut scratch);
        // The part of the record that lives in the clusters themselves,
        // in exploration order — the order `apply_stats` walks a
        // one-query delta's touched list in.
        for &slot in &explored {
            self.cluster_mut(slot).q_count += 1;
        }
        self.close_queries(
            1,
            metrics.stats.verified_bytes,
            metrics.stats.objects_verified * self.store.object_bytes() as u64,
        );
        let matches = scratch.matches.clone();
        self.query_scratch = scratch;
        self.explored_scratch = explored;
        Ok(QueryResult { matches, metrics })
    }

    /// Runs one cluster reorganization pass (paper Fig. 1): for every
    /// materialized cluster, merge it into its parent when the merging
    /// benefit is positive, otherwise greedily materialize its profitable
    /// candidate subclusters. Statistics epochs restart afterwards.
    ///
    /// Production and [`IndexConfig::reference`] run the same loop and
    /// differ in the split step alone: production skips the candidate
    /// scan of a cluster its O(1) screen proves cannot split and prices
    /// the others over the candidate counter columns, `reference` scans
    /// every cluster candidate by candidate. Both produce the same
    /// [`ReorgReport`], the same merges and materializations, and
    /// bit-identical [`ClusterSnapshot`]s; the work they spend differs
    /// ([`AdaptiveClusterIndex::last_reorg_profile`]).
    pub fn reorganize(&mut self) -> ReorgReport {
        let pass_started = std::time::Instant::now();
        let mut report = ReorgReport {
            clusters_before: self.cluster_count(),
            ..Default::default()
        };
        let mut profile = ReorgProfile::default();
        self.pass_thrash = 0;
        self.pass_moved = 0;
        self.pass_cooldown_blocked = 0;
        let mut snapshot = std::mem::take(&mut self.reorg_scratch.snapshot);
        snapshot.clear();
        snapshot.extend(
            (0..self.clusters.len() as u32).filter(|&s| self.clusters[s as usize].is_some()),
        );
        self.pass(&snapshot, &mut report, &mut profile);
        self.reorg_scratch.snapshot = snapshot;
        profile.thrash_cycles = self.pass_thrash;
        profile.objects_moved = self.pass_moved;
        profile.cooldown_blocked = self.pass_cooldown_blocked;
        report.clusters_after = self.cluster_count();
        self.reorg_fault(ReorgFaultPoint::BeforeEpochClose);
        if self.wal.is_some() {
            self.wal_log_structural(WalRecord::EpochClose);
        }
        self.close_epoch(report.changed());
        profile.arena_live_bytes = self.stats_arena.live_bytes() as u64;
        profile.arena_capacity_bytes = self.stats_arena.capacity_bytes() as u64;
        profile.compactions = self.stats_arena.compactions();
        self.total_merges += report.merges;
        self.total_splits += report.splits;
        self.last_profile = profile;
        self.reorg_wall_ns += pass_started.elapsed().as_nanos() as u64;
        report
    }

    /// The epoch-close tail shared by a live pass and WAL replay:
    /// compact the arena (structural changes retired candidate ranges —
    /// reclaim the dead bytes here, off the query path, once they
    /// dominate), fold the statistics epoch, advance the pass clock,
    /// prune merge memory too old to matter for either the thrash
    /// window or the cool-down, and — when the pass changed the
    /// clustering — open a new structure epoch.
    fn close_epoch(&mut self, structure_changed: bool) {
        self.stats_arena.maybe_compact();
        self.decay_statistics();
        self.reorganizations += 1;
        let passes = self.reorganizations;
        let retention = THRASH_WINDOW.max(self.config.merge_cooldown);
        self.recent_merges.retain(|_, at| passes - *at < retention);
        self.queries_since_reorg = 0;
        if structure_changed {
            self.structure_epoch += 1;
        }
    }

    /// Puts every segment in key order; one that already is costs
    /// nothing.
    fn order_segments(&mut self) {
        for cluster in self.clusters.iter().flatten() {
            self.store.order(cluster.segment);
        }
    }

    /// Work profile of the most recent reorganization pass — how many
    /// clusters were evaluated, candidate-scanned, or screened out.
    /// Diagnostics only: unlike the [`ReorgReport`], the profile
    /// legitimately differs between production and
    /// [`IndexConfig::reference`].
    pub fn last_reorg_profile(&self) -> ReorgProfile {
        self.last_profile
    }

    /// Cumulative wall-clock nanoseconds this index has spent inside
    /// [`AdaptiveClusterIndex::reorganize`] since construction.
    ///
    /// Every pass runs on the mutation path — `execute` triggers it
    /// inline when the period elapses — so this is exactly the serving
    /// stall reorganization has caused: the batched path hides it inside
    /// window boundaries, the sharded serving tier confines it to one
    /// shard. Diagnostics only (wall time, not part of any decision
    /// surface); not persisted by checkpoints.
    pub fn reorg_wall_ns(&self) -> u64 {
        self.reorg_wall_ns
    }

    /// The pass loop (paper Fig. 1), one for both executions: same visit
    /// order, same epoch gate, same merge expression. The split step is
    /// where they part. [`IndexConfig::reference`] catches every
    /// evaluated cluster's counters up and scans them with scalar
    /// arithmetic — the decision oracle. Production first asks the O(1)
    /// screen ([`AdaptiveClusterIndex::split_screen_rules_out`]), which
    /// touches no candidate column and so leaves the cluster's decay
    /// lazy, and runs the columnar scan
    /// ([`AdaptiveClusterIndex::split_scan_columnar`]) only on a cluster
    /// the screen cannot rule out.
    fn pass(&mut self, snapshot: &[u32], report: &mut ReorgReport, profile: &mut ReorgProfile) {
        let costs = self.pass_costs();
        for &slot in snapshot {
            if self.clusters[slot as usize].is_none() {
                continue; // removed by an earlier merge in this pass
            }
            let cluster = self.cluster(slot);
            let epoch_len = self.total_queries.saturating_sub(cluster.epoch_start);
            if cluster.weight + (epoch_len as f64) < self.config.min_epoch_queries as f64 {
                continue;
            }
            profile.evaluated += 1;
            if slot != self.root && self.merge_profitable(slot) {
                self.merge_cluster(slot);
                report.merges += 1;
                continue;
            }
            let splits = if self.config.reference {
                self.materialize_candidates(slot);
                self.split_scan_scalar(slot, epoch_len)
            } else {
                // No scalar statistic moves while a pass runs, so the
                // screen and the scan share one `p_c`.
                let p_c = self.access_probability(self.cluster(slot));
                if self.split_screen_rules_out(slot, epoch_len, &costs, p_c) {
                    // Debug builds run the scan the screen skipped and
                    // insist it finds nothing — a tripwire for any hole
                    // in the screen's soundness argument. The scan
                    // catches the counters up and re-tightens `n_hi`;
                    // both are put back, so a debug build leaves the
                    // state (and writes the checkpoint) an optimized
                    // one does.
                    #[cfg(debug_assertions)]
                    {
                        let handle = self.cluster(slot).candidates;
                        let mut q = std::mem::take(&mut self.reorg_scratch.saved_q);
                        let mut q_eff = std::mem::take(&mut self.reorg_scratch.saved_q_eff);
                        let saved = self.stats_arena.slice(handle);
                        q.clear();
                        q.extend_from_slice(saved.q_col());
                        q_eff.clear();
                        q_eff.extend_from_slice(saved.q_eff_col());
                        let (n_hi, stamp) = (saved.n_hi(), saved.stamp());
                        self.materialize_candidates(slot);
                        let splits = self.split_scan_columnar(slot, epoch_len, &costs, p_c);
                        assert_eq!(
                            splits, 0,
                            "screen wrongly skipped a split on slot {slot}: p_c={p_c} \
                             n_hi={n_hi} epoch_len={epoch_len}"
                        );
                        self.stats_arena
                            .slice_mut(handle)
                            .restore_counters(&q, &q_eff, n_hi, stamp);
                        self.reorg_scratch.saved_q = q;
                        self.reorg_scratch.saved_q_eff = q_eff;
                    }
                    profile.screened_out += 1;
                    continue;
                }
                self.materialize_candidates(slot);
                self.split_scan_columnar(slot, epoch_len, &costs, p_c)
            };
            profile.candidate_scans += 1 + splits;
            report.splits += splits;
        }
    }

    /// Merging benefit `μ(c, parent)` of one cluster under current
    /// statistics (paper §5).
    fn merge_benefit(&self, slot: u32) -> f64 {
        let cluster = self.cluster(slot);
        let parent = self.cluster(cluster.parent.expect("non-root has a parent"));
        merging_benefit(
            self.model.a(),
            self.model.b(),
            self.decision_c(),
            self.access_probability(cluster),
            self.access_probability(parent),
            self.store.segment_len(cluster.segment),
        )
    }

    /// The hysteresis + significance threshold a merge benefit must
    /// clear (non-negative by construction).
    fn merge_threshold(&self, slot: u32) -> f64 {
        let cluster = self.cluster(slot);
        let p_c = self.access_probability(cluster);
        let n_c = self.store.segment_len(cluster.segment);
        let n_eff = cluster.weight + self.total_queries.saturating_sub(cluster.epoch_start) as f64;
        self.move_margin(n_c) + self.confidence_margin(p_c, n_eff, n_c)
    }

    fn merge_profitable(&self, slot: u32) -> bool {
        self.merge_benefit(slot) > self.merge_threshold(slot)
    }

    /// The O(1) screen: decides — soundly — whether a full candidate
    /// scan of `slot` could possibly materialize anything, without
    /// touching the candidate columns (and therefore without forcing
    /// their lazy decay).
    ///
    /// The screen prices the most profitable candidate any scan could
    /// find: a hypothetical candidate holding the cluster's cached
    /// maximal member count
    /// ([`crate::candidates::CandidateSlice::n_hi`] — exact after every
    /// scan, only ever *raised* by mutations in between) with access
    /// probability zero. Soundness against the scalar scan, including
    /// its float arithmetic:
    ///
    /// * a real candidate's benefit is monotonically non-increasing in
    ///   `p_s` under IEEE rounding (every op of
    ///   [`materialization_benefit`] preserves ordering), so the screen's
    ///   `benefit(p_s = 0, n_hi)` dominates every candidate with the
    ///   maximal member count — **bit-exactly equalling** the scan's
    ///   value for a cold such candidate, the decisive case;
    /// * its significance threshold is monotonically non-decreasing in
    ///   the variance, whose floor `1/denom²` is attained exactly at
    ///   `p = 0` — again the screen's own expression;
    /// * for smaller member counts the real-arithmetic margin
    ///   `benefit − threshold` is linear in `n` with negative intercept
    ///   `−(A + z·B/denom)`, so it sits below the `n_hi` margin (when
    ///   the slope is positive) or below `−A` (when it is not) — `A`
    ///   dwarfs accumulated rounding noise at every realistic scale.
    ///
    /// A `true` verdict is therefore decision-identical to running the
    /// scan and finding nothing; `false` only costs the scan itself.
    fn split_screen_rules_out(
        &self,
        slot: u32,
        epoch_len: u64,
        costs: &PassCosts,
        p_c: f64,
    ) -> bool {
        let cluster = self.cluster(slot);
        let n_hi = self.stats_arena.slice(cluster.candidates).n_hi() as usize;
        if n_hi == 0 {
            return true; // no candidate holds members: the scan skips them all
        }
        let denom = cluster.weight + epoch_len as f64;
        if denom <= 0.0 {
            // Every probability the scan would price collapses to zero:
            // each benefit is exactly −A < 0 and thresholds are
            // non-negative.
            return true;
        }
        debug_assert_eq!(p_c.to_bits(), self.access_probability(cluster).to_bits());
        let benefit_hi = materialization_benefit(costs.a, costs.b, costs.c, p_c, 0.0, n_hi);
        if benefit_hi <= 0.0 {
            return true; // thresholds of populated candidates are strictly positive
        }
        // Cheap tier first: the slack-deflated floor under the exact
        // threshold (same construction as the scan's per-candidate
        // prefilter) resolves almost every screened cluster without the
        // sqrt-bearing confidence margin.
        let zd = if costs.z > 0.0 { costs.z / denom } else { 0.0 };
        let floor = (n_hi as f64 * (costs.moved / costs.horizon + zd * costs.c) + zd * costs.b)
            * (1.0 - FLOOR_SLACK);
        if benefit_hi <= floor {
            return true;
        }
        let threshold_lo = move_margin_c(costs.moved, costs.horizon, n_hi)
            + confidence_margin_c(costs.z, costs.c, costs.b, 0.0, denom, n_hi);
        benefit_hi <= threshold_lo
    }

    /// Paper Fig. 2: moves all members of `slot` into its parent, updates
    /// the parent's candidate statistics, reparents the children, and
    /// removes the cluster.
    fn merge_cluster(&mut self, slot: u32) {
        self.reorg_fault(ReorgFaultPoint::BeforeMerge);
        if self.wal.is_some() {
            let signature = self.cluster(slot).signature.to_bytes();
            self.wal_log_structural(WalRecord::Merge { signature });
        }
        let parent_slot = self.cluster(slot).parent.expect("non-root has a parent");
        let cluster = self.clusters[slot as usize]
            .take()
            .expect("cluster slot is live");
        self.free_slots.push(slot);
        // The dying cluster's statistics range is dead arena bytes from
        // here on; the next reorganization-pass compaction reclaims it.
        self.stats_arena.retire(cluster.candidates);
        // Remember the dying signature: a near-term re-materialization
        // of it is a thrash cycle (and, under the cool-down, vetoed).
        self.recent_merges
            .insert(cluster.signature.to_bytes(), self.reorganizations);

        let (ids, coords) = self.store.remove(cluster.segment);
        self.pass_moved += ids.len() as u64;
        let width = 2 * self.config.dims;
        {
            let parent = self.clusters[parent_slot as usize]
                .as_mut()
                .expect("parent slot is live");
            parent.children.retain(|&c| c != slot);
            let parent_segment = parent.segment;
            let mut pcands = self.stats_arena.slice_mut(parent.candidates);
            for (i, oid) in ids.iter().enumerate() {
                let flat = &coords[i * width..(i + 1) * width];
                debug_assert!(parent.signature.accepts_flat(flat));
                pcands.record_member(flat);
                self.store.push(parent_segment, *oid, flat);
            }
        }
        for child in cluster.children {
            self.cluster_mut(child).parent = Some(parent_slot);
            self.cluster_mut(parent_slot).children.push(child);
        }
        self.reorg_fault(ReorgFaultPoint::AfterMerge);
    }

    /// Paper Fig. 3, the reference's split scan: greedily materializes
    /// the best positive-benefit candidate subclusters of `slot` with
    /// candidate-at-a-time scalar arithmetic — the decision oracle of
    /// the columnar scan. The caller has caught the cluster's candidate
    /// counters up to the current statistics epoch. Returns the number
    /// of materializations performed.
    fn split_scan_scalar(&mut self, slot: u32, epoch_len: u64) -> u64 {
        let mut splits = 0u64;
        let mut blocked = 0u64;
        let (a, b, c) = (self.model.a(), self.model.b(), self.decision_c());
        loop {
            let (best, max_n) = {
                let cluster = self.cluster(slot);
                let p_c = self.access_probability(cluster);
                let denom = cluster.weight + epoch_len as f64;
                let cands = self.stats_arena.slice(cluster.candidates);
                let mut best: Option<(usize, f64)> = None;
                let mut max_n = 0u32;
                for idx in 0..cands.len() {
                    let n = cands.n(idx);
                    max_n = max_n.max(n);
                    if n == 0 {
                        continue;
                    }
                    let p_s = if denom <= 0.0 {
                        0.0
                    } else {
                        (cands.q_eff(idx) + cands.q(idx) as f64) / denom
                    };
                    let benefit = materialization_benefit(a, b, c, p_c, p_s, n as usize);
                    let threshold = self.move_margin(n as usize)
                        + self.confidence_margin(p_s, denom, n as usize);
                    if benefit > threshold && best.is_none_or(|(_, bst)| benefit > bst) {
                        if self.candidate_on_cooldown(cluster, idx) {
                            blocked += 1;
                            continue;
                        }
                        best = Some((idx, benefit));
                    }
                }
                (best, max_n)
            };
            // The scan walked every counter anyway: re-tighten the
            // cached bound the production screen prices.
            {
                let cluster = self.clusters[slot as usize]
                    .as_mut()
                    .expect("cluster slot is live");
                self.stats_arena.slice_mut(cluster.candidates).set_n_hi(max_n);
            }
            let Some((cand_idx, _)) = best else {
                break;
            };
            self.materialize_candidate(slot, cand_idx);
            splits += 1;
        }
        self.pass_cooldown_blocked += blocked;
        splits
    }

    /// The columnar split scan: evaluates a sound benefit **bound**
    /// column in one vectorizable pass over the candidate counter
    /// columns ([`materialization_benefit_column`] — reciprocal-multiply
    /// upper bounds within parts in 10¹² of the exact benefits,
    /// AVX2-dispatched), prunes it against a division- and sqrt-free
    /// threshold floor, and re-prices only the rare survivors with the
    /// scalar loop's exact arithmetic and selection semantics (first
    /// candidate strictly exceeding both its own significance threshold
    /// and the best so far). Every pruned candidate is provably rejected
    /// by the scalar loop too — its exact benefit sits at or below the
    /// bound, which sits at or below the floor, which under-prices its
    /// threshold — so the chosen candidate is identical.
    fn split_scan_columnar(
        &mut self,
        slot: u32,
        epoch_len: u64,
        costs: &PassCosts,
        p_c: f64,
    ) -> u64 {
        let mut splits = 0u64;
        let mut blocked = 0u64;
        let mut benefits = std::mem::take(&mut self.reorg_scratch.benefits);
        loop {
            let (best, max_n) = {
                let cluster = self.cluster(slot);
                debug_assert_eq!(p_c.to_bits(), self.access_probability(cluster).to_bits());
                let denom = cluster.weight + epoch_len as f64;
                let cands = self.stats_arena.slice(cluster.candidates);
                // Division- and sqrt-free threshold floor, hoisted per
                // scan: a candidate's significance threshold is at
                // least `n(2C + M)/H + (z/D)(nC + B)` (move margin plus the
                // confidence margin at its variance floor `1/D²`, both
                // monotone under IEEE rounding), so `n·r_floor +
                // s_floor` — deflated by 1e-12, ten thousand times the
                // accumulated relative rounding error of either side —
                // soundly under-prices every threshold. Candidates at
                // or below the floor are provably rejected with one
                // multiply-add fused into the column pass; only the
                // handful near the split boundary pay the exact margin
                // division and the sqrt.
                let zd = if costs.z > 0.0 && denom > 0.0 {
                    costs.z / denom
                } else {
                    0.0
                };
                let r_floor =
                    (costs.moved / costs.horizon + zd * costs.c) * (1.0 - FLOOR_SLACK);
                let s_floor = zd * costs.b * (1.0 - FLOOR_SLACK);
                let summary = materialization_benefit_column(
                    costs.a,
                    costs.b,
                    costs.c,
                    p_c,
                    denom,
                    r_floor,
                    s_floor,
                    cands.n_col(),
                    cands.q_col(),
                    cands.q_eff_col(),
                    &mut benefits,
                );
                let max_n = summary.max_n;
                // Almost every scan of an adapted index finds *no*
                // candidate above its floor (memberless candidates have
                // negative bounds, so they can never fire); the branchy
                // selection sweep below runs only when a candidate
                // might actually qualify — its skip test is the same
                // float comparison, so the short-cut is
                // decision-identical.
                let mut best: Option<(usize, f64)> = None;
                if summary.any_above_floor {
                    for ((idx, &bound), &n_s) in benefits.iter().enumerate().zip(cands.n_col()) {
                        if n_s == 0 || bound <= n_s as f64 * r_floor + s_floor {
                            continue;
                        }
                        let n = n_s as usize;
                        // Exact expressions from here on: `decision_c`
                        // is deterministic across the pass, so the
                        // hoisted costs make this margin equal
                        // `move_margin(n)` bit for bit, the benefit the
                        // scalar loop's, and the threshold the scalar
                        // scan's.
                        let p_s = if denom <= 0.0 {
                            0.0
                        } else {
                            (cands.q_eff(idx) + cands.q(idx) as f64) / denom
                        };
                        let benefit =
                            materialization_benefit(costs.a, costs.b, costs.c, p_c, p_s, n);
                        if let Some((_, bst)) = best {
                            if benefit <= bst {
                                continue;
                            }
                        }
                        let margin = move_margin_c(costs.moved, costs.horizon, n);
                        if benefit <= margin {
                            continue;
                        }
                        let threshold =
                            margin + confidence_margin_c(costs.z, costs.c, costs.b, p_s, denom, n);
                        if benefit > threshold {
                            if self.candidate_on_cooldown(cluster, idx) {
                                blocked += 1;
                                continue;
                            }
                            best = Some((idx, benefit));
                        }
                    }
                }
                (best, max_n)
            };
            {
                let cluster = self.clusters[slot as usize]
                    .as_mut()
                    .expect("cluster slot is live");
                self.stats_arena.slice_mut(cluster.candidates).set_n_hi(max_n);
            }
            let Some((cand_idx, _)) = best else {
                break;
            };
            self.materialize_candidate(slot, cand_idx);
            splits += 1;
        }
        self.reorg_scratch.benefits = benefits;
        self.pass_cooldown_blocked += blocked;
        splits
    }

    /// Whether the [`IndexConfig::merge_cooldown`] hysteresis vetoes
    /// materializing candidate `idx` of `cluster`: its signature was
    /// merged away within the last `merge_cooldown` passes. Always
    /// `false` with the cool-down disabled (the default).
    ///
    /// Called by both split scans at the same point of their selection
    /// semantics — only for a candidate that cleared its significance
    /// threshold and the best-so-far — so the veto is a pure filter on
    /// the qualifying set and production-vs-reference decision-identity
    /// is preserved for every cool-down value. Rendering the candidate
    /// signature is deferred to that rare case, keeping the veto off an
    /// adapted index's hot path. Soundness of the production screen is
    /// unaffected: the cool-down only *removes* materializations, and
    /// the screen still prices vetoed candidates, so a
    /// profitable-but-vetoed candidate keeps its cluster's scan alive
    /// until the cool-down expires.
    fn candidate_on_cooldown(&self, cluster: &Cluster, idx: usize) -> bool {
        if self.config.merge_cooldown == 0 || self.recent_merges.is_empty() {
            return false;
        }
        let sig = self.stats_arena.slice(cluster.candidates).signature(
            idx,
            &cluster.signature,
            self.config.division_factor,
        );
        match self.recent_merges.get(&sig.to_bytes()) {
            Some(&at) => self.reorganizations.saturating_sub(at) < self.config.merge_cooldown,
            None => false,
        }
    }

    /// Materializes candidate `cand_idx` of cluster `slot` as a new
    /// cluster, moving the qualifying objects; returns the new slot.
    fn materialize_candidate(&mut self, slot: u32, cand_idx: usize) -> u32 {
        self.reorg_fault(ReorgFaultPoint::BeforeMaterialize);
        if self.wal.is_some() {
            let signature = self.cluster(slot).signature.to_bytes();
            self.wal_log_structural(WalRecord::Materialize {
                signature,
                candidate: cand_idx as u32,
            });
        }
        let f = self.config.division_factor;
        let width = 2 * self.config.dims;
        let (new_signature, expected, inherited_q, inherited_q_eff, parent_epoch, parent_weight) = {
            let cluster = self.cluster(slot);
            let cands = self.stats_arena.slice(cluster.candidates);
            (
                cands.signature(cand_idx, &cluster.signature, f),
                cands.n(cand_idx) as usize,
                cands.q(cand_idx) as u64,
                cands.q_eff(cand_idx),
                cluster.epoch_start,
                cluster.weight,
            )
        };
        // A signature merged away a few passes ago coming back is one
        // completed split→merge→split cycle. Counted regardless of the
        // cool-down (which, when enabled, prevents reaching this point
        // within its own window).
        if let Some(&merged_at) = self.recent_merges.get(&new_signature.to_bytes()) {
            if self.reorganizations.saturating_sub(merged_at) < THRASH_WINDOW {
                self.pass_thrash += 1;
                self.total_thrash += 1;
            }
        }
        let new_segment = self.store.create(expected.max(1));
        let candidates = self
            .stats_arena
            .alloc(&generate_candidates(&new_signature, f));
        // Fresh counters are de-facto materialized to the open epoch.
        self.stats_arena
            .slice_mut(candidates)
            .set_stamp(self.stats_epoch);
        let new_slot = self.alloc_slot(Cluster {
            signature: new_signature,
            parent: Some(slot),
            children: Vec::new(),
            segment: new_segment,
            candidates,
            q_count: inherited_q,
            epoch_start: parent_epoch,
            q_eff: inherited_q_eff,
            weight: parent_weight,
        });
        assign_segment(&mut self.segment_cluster, new_segment, new_slot);

        // Move qualifying objects; maintain the source cluster's candidate
        // counters and compute the new cluster's.
        let parent_cluster = self.clusters[slot as usize]
            .as_mut()
            .expect("cluster slot is live");
        let parent_segment = parent_cluster.segment;
        let cand = self.stats_arena.slice(parent_cluster.candidates).bounds(cand_idx);
        let (moved_ids, moved_coords) = self
            .store
            .extract(parent_segment, cand.dim(), |lo, hi| cand.accepts_bounds(lo, hi));
        self.pass_moved += moved_ids.len() as u64;
        let moved = || moved_ids.iter().zip(moved_coords.chunks_exact(width));
        {
            let mut pcands = self.stats_arena.slice_mut(parent_cluster.candidates);
            for flat in moved_coords.chunks_exact(width) {
                pcands.unrecord_member(flat);
            }
        }
        parent_cluster.children.push(new_slot);
        debug_assert_eq!(
            self.stats_arena.slice(parent_cluster.candidates).n(cand_idx),
            0
        );

        // The child is built in key order, so it starts life ordered
        // (an ordered parent hands its members over in that order
        // already, and the sort finds nothing to do).
        let mut in_key_order: Vec<_> = moved().collect();
        in_key_order.sort_by(|a, b| SegmentStore::key(a.1).total_cmp(&SegmentStore::key(b.1)));
        for (oid, flat) in in_key_order {
            self.store.push(new_segment, *oid, flat);
        }
        self.stats_arena
            .slice_mut(candidates)
            .recount_members(&self.store.columns(new_segment));
        self.reorg_fault(ReorgFaultPoint::AfterMaterialize);
        new_slot
    }

    fn alloc_slot(&mut self, cluster: Cluster) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.clusters[slot as usize] = Some(cluster);
            slot
        } else {
            self.clusters.push(Some(cluster));
            (self.clusters.len() - 1) as u32
        }
    }

    /// Closes the current statistics epoch: folds the per-cluster scalar
    /// counters into the exponentially decayed history (`stats_decay`
    /// weight) and restarts the epoch, so access probabilities track
    /// recent periods while damping single-period noise.
    ///
    /// The per-**candidate** counters — `f²·N_d` of them per cluster,
    /// the bulk of every counter in the system — are *not* folded here:
    /// the close only rolls the global epoch number, and each cluster
    /// replays its missed folds exactly on its next touch
    /// ([`AdaptiveClusterIndex::materialize_candidates`]). A close is
    /// therefore O(clusters) scalar work plus O(changed counters)
    /// amortized, instead of O(total counters) every period.
    fn decay_statistics(&mut self) {
        let now = self.total_queries;
        let gamma = self.config.stats_decay;
        self.hist_verified_bytes =
            gamma * self.hist_verified_bytes + self.epoch_verified_bytes as f64;
        self.hist_full_bytes = gamma * self.hist_full_bytes + self.epoch_full_bytes as f64;
        self.epoch_verified_bytes = 0;
        self.epoch_full_bytes = 0;
        for cluster in self.clusters.iter_mut().flatten() {
            let epoch_len = now.saturating_sub(cluster.epoch_start) as f64;
            cluster.q_eff = gamma * cluster.q_eff + cluster.q_count as f64;
            cluster.weight = gamma * cluster.weight + epoch_len;
            cluster.q_count = 0;
            cluster.epoch_start = now;
        }
        self.stats_epoch += 1;
    }

    /// Read-only snapshots of all materialized clusters (depth-first
    /// order from the root).
    pub fn snapshots(&self) -> Vec<ClusterSnapshot> {
        let mut out = Vec::with_capacity(self.cluster_count());
        let mut stack = vec![(self.root, 0usize)];
        while let Some((slot, depth)) = stack.pop() {
            let cluster = self.cluster(slot);
            out.push(ClusterSnapshot {
                id: slot,
                parent: cluster.parent,
                objects: self.store.segment_len(cluster.segment),
                access_probability: self.access_probability(cluster),
                depth,
                signature: cluster.signature.to_string(),
            });
            for &child in &cluster.children {
                stack.push((child, depth + 1));
            }
        }
        out
    }

    /// Storage utilization of the underlying segment store.
    pub fn storage_utilization(&self) -> f64 {
        self.store.utilization()
    }

    /// Segment relocations performed by the store since creation.
    pub fn storage_relocations(&self) -> u64 {
        self.store.relocations()
    }

    /// Persists a full-fidelity checkpoint to `path` following the
    /// paper's recovery scheme (§6): signatures are stored with the
    /// member objects behind a one-block directory. A leading metadata
    /// record additionally carries the adaptive state — per-cluster
    /// access statistics, candidate query counters, the slot layout,
    /// and the pass clocks — so a reloaded index resumes making exactly
    /// the reorganization decisions it would have made without the
    /// restart (the crash-recovery equivalence the durability suite
    /// asserts). Candidate `n` counters are *not* persisted: the load
    /// recounts them exactly from the stored objects.
    pub fn save(&self, path: &Path) -> Result<(), IndexError> {
        let live: Vec<u32> = (0..self.clusters.len() as u32)
            .filter(|&s| self.clusters[s as usize].is_some())
            .collect();
        let mut records = Vec::with_capacity(live.len() + 1);
        records.push(ClusterRecord {
            signature: self.checkpoint_meta(&live).encode(),
            ids: Vec::new(),
            coords: Vec::new(),
        });
        for &slot in &live {
            let cluster = self.cluster(slot);
            // Parents stay in slot space: the metadata record carries
            // the slot of every record, so no densification is needed
            // (and replayed WAL suffixes address clusters by signature,
            // which slot fidelity keeps deterministic).
            let parent = cluster.parent.unwrap_or(NO_PARENT);
            let mut signature = parent.to_le_bytes().to_vec();
            signature.extend_from_slice(&cluster.signature.to_bytes());
            records.push(ClusterRecord {
                signature,
                ids: self.store.ids(cluster.segment).to_vec(),
                coords: self.store.interleaved_coords(cluster.segment),
            });
        }
        FileStore::save(path, self.config.dims, &records)?;
        Ok(())
    }

    /// Gathers the adaptive state of the index into the checkpoint
    /// metadata record. `live` is the ascending slot list matching the
    /// cluster records that follow the metadata in the file.
    fn checkpoint_meta(&self, live: &[u32]) -> CheckpointMeta {
        let clusters = live
            .iter()
            .map(|&slot| {
                let cluster = self.cluster(slot);
                let cands = self.stats_arena.slice(cluster.candidates);
                ClusterMeta {
                    slot,
                    q_count: cluster.q_count,
                    epoch_start: cluster.epoch_start,
                    q_eff: cluster.q_eff,
                    weight: cluster.weight,
                    stamp: cands.stamp(),
                    n_hi: cands.n_hi(),
                    cand_q: cands.q_col().to_vec(),
                    cand_q_eff: cands.q_eff_col().to_vec(),
                }
            })
            .collect();
        // Sorted for a byte-deterministic checkpoint (the map iterates
        // in arbitrary order).
        let mut recent_merges: Vec<(Vec<u8>, u64)> = self
            .recent_merges
            .iter()
            .map(|(sig, &pass)| (sig.clone(), pass))
            .collect();
        recent_merges.sort();
        CheckpointMeta {
            checkpoint_id: self.checkpoint_id,
            total_queries: self.total_queries,
            queries_since_reorg: self.queries_since_reorg,
            structure_epoch: self.structure_epoch,
            reorganizations: self.reorganizations,
            stats_epoch: self.stats_epoch,
            total_merges: self.total_merges,
            total_splits: self.total_splits,
            total_thrash: self.total_thrash,
            epoch_verified_bytes: self.epoch_verified_bytes,
            epoch_full_bytes: self.epoch_full_bytes,
            hist_verified_bytes: self.hist_verified_bytes,
            hist_full_bytes: self.hist_full_bytes,
            clusters,
            free_slots: self.free_slots.clone(),
            recent_merges,
        }
    }

    /// Restores an index persisted by [`AdaptiveClusterIndex::save`].
    /// The configuration must use the same dimensionality.
    ///
    /// Checkpoints carrying the metadata record restore the full
    /// adaptive state (slot layout, statistics, pass clocks); files
    /// without one — e.g. hand-built fixtures — load with dense slots
    /// and zeroed statistics, exactly as before the metadata existed.
    pub fn load(path: &Path, config: IndexConfig) -> Result<Self, IndexError> {
        config.validate()?;
        let (dims, records) = FileStore::load(path)?;
        if dims != config.dims {
            return Err(IndexError::DimensionMismatch {
                expected: config.dims,
                actual: dims,
            });
        }
        let (meta, cluster_records) = match records.first() {
            Some(first) if CheckpointMeta::is_meta(first) => {
                let meta = CheckpointMeta::decode(&first.signature).map_err(corrupt)?;
                (Some(meta), &records[1..])
            }
            _ => (None, &records[..]),
        };
        // The slot of each cluster record: from the metadata when
        // present (parents are then in slot space), dense otherwise.
        let slots: Vec<u32> = match &meta {
            Some(meta) => {
                if meta.clusters.len() != cluster_records.len() {
                    return Err(corrupt(format!(
                        "metadata describes {} clusters but the file holds {}",
                        meta.clusters.len(),
                        cluster_records.len()
                    )));
                }
                for pair in meta.clusters.windows(2) {
                    if pair[1].slot <= pair[0].slot {
                        return Err(corrupt("cluster slots not strictly ascending".into()));
                    }
                }
                meta.clusters.iter().map(|c| c.slot).collect()
            }
            None => (0..cluster_records.len() as u32).collect(),
        };
        // Live and free slots partition the slot space (checked below),
        // so its size is their count — not the highest live slot plus
        // one: merges can free the topmost slots.
        let capacity = slots.len() + meta.as_ref().map_or(0, |m| m.free_slots.len());
        let mut live = vec![false; capacity];
        for &slot in &slots {
            *live
                .get_mut(slot as usize)
                .ok_or_else(|| corrupt(format!("cluster slot {slot} out of range")))? = true;
        }
        let f = config.division_factor;
        let width = 2 * dims;
        let mut store = SegmentStore::with_reserve(dims, config.reserve_fraction);
        let mut stats_arena = StatsArena::new();
        let mut clusters: Vec<Option<Cluster>> = (0..capacity).map(|_| None).collect();
        let mut segment_cluster = Vec::with_capacity(cluster_records.len());
        let mut root = None;
        let mut parents: Vec<Option<u32>> = Vec::with_capacity(cluster_records.len());
        for (i, rec) in cluster_records.iter().enumerate() {
            let slot = slots[i];
            if rec.signature.len() < 4 {
                return Err(corrupt(format!("cluster {i}: signature blob too short")));
            }
            let parent = u32::from_le_bytes(rec.signature[..4].try_into().unwrap());
            let signature = Signature::from_bytes(&rec.signature[4..])
                .ok_or_else(|| corrupt(format!("cluster {i}: undecodable signature")))?;
            if signature.dims() != dims {
                return Err(IndexError::DimensionMismatch {
                    expected: dims,
                    actual: signature.dims(),
                });
            }
            let segment = store.create(rec.ids.len());
            assign_segment(&mut segment_cluster, segment, slot);
            for (k, &oid) in rec.ids.iter().enumerate() {
                let flat = &rec.coords[k * width..(k + 1) * width];
                if !signature.accepts_flat(flat) {
                    return Err(corrupt(format!(
                        "cluster {i}: object #{oid} violates signature"
                    )));
                }
                if store.contains_object(oid) {
                    return Err(corrupt(format!("object #{oid} appears in two clusters")));
                }
                store.push(segment, oid, flat);
            }
            let handle = stats_arena.alloc(&generate_candidates(&signature, f));
            let mut candidates = stats_arena.slice_mut(handle);
            candidates.recount_members(&store.columns(segment));
            let mut cluster_meta = None;
            if let Some(meta) = &meta {
                let cm = &meta.clusters[i];
                if cm.cand_q.len() != candidates.len() || cm.cand_q_eff.len() != candidates.len() {
                    return Err(corrupt(format!(
                        "cluster {i}: {} persisted candidate counters but the signature \
                         generates {}",
                        cm.cand_q.len(),
                        candidates.len()
                    )));
                }
                if cm.stamp > meta.stats_epoch {
                    return Err(corrupt(format!(
                        "cluster {i}: decay stamp {} ahead of the statistics epoch {}",
                        cm.stamp, meta.stats_epoch
                    )));
                }
                if cm.epoch_start > meta.total_queries {
                    return Err(corrupt(format!(
                        "cluster {i}: epoch start {} ahead of the query clock {}",
                        cm.epoch_start, meta.total_queries
                    )));
                }
                if !(cm.q_eff.is_finite() && cm.weight.is_finite()) {
                    return Err(corrupt(format!("cluster {i}: non-finite statistics")));
                }
                candidates.restore_counters(&cm.cand_q, &cm.cand_q_eff, cm.n_hi, cm.stamp);
                cluster_meta = Some((cm.q_count, cm.epoch_start, cm.q_eff, cm.weight));
            }
            let parent = if parent == NO_PARENT {
                if root.replace(slot).is_some() {
                    return Err(corrupt("multiple root clusters".into()));
                }
                None
            } else {
                if (parent as usize) >= capacity || !live[parent as usize] {
                    return Err(corrupt(format!("cluster {i}: dangling parent {parent}")));
                }
                Some(parent)
            };
            parents.push(parent);
            let (q_count, epoch_start, q_eff, weight) = cluster_meta.unwrap_or((0, 0, 0.0, 0.0));
            clusters[slot as usize] = Some(Cluster {
                signature,
                parent,
                children: Vec::new(),
                segment,
                candidates: handle,
                q_count,
                epoch_start,
                q_eff,
                weight,
            });
        }
        let root = root.ok_or_else(|| corrupt("no root cluster".into()))?;
        for (i, parent) in parents.iter().enumerate() {
            if let Some(p) = parent {
                clusters[*p as usize]
                    .as_mut()
                    .expect("parents are live")
                    .children
                    .push(slots[i]);
            }
        }
        // The free list must be exactly the holes in the slot space, so
        // recycled slot numbers stay replay-stable (distinct + not live).
        let free_slots = match &meta {
            Some(meta) => {
                let mut seen = vec![false; capacity];
                for &slot in &meta.free_slots {
                    if (slot as usize) >= capacity || live[slot as usize] {
                        return Err(corrupt(format!("free slot {slot} is live or out of range")));
                    }
                    if std::mem::replace(&mut seen[slot as usize], true) {
                        return Err(corrupt(format!("free slot {slot} listed twice")));
                    }
                }
                meta.free_slots.clone()
            }
            None => Vec::new(),
        };
        let model = config.cost_model();
        let reorg_scratch = ReorgScratch::with_candidate_capacity(&config);
        let mut index = Self {
            config,
            model,
            store,
            stats_arena,
            clusters,
            free_slots,
            root,
            segment_cluster,
            total_queries: 0,
            queries_since_reorg: 0,
            structure_epoch: 0,
            reorganizations: 0,
            total_merges: 0,
            total_splits: 0,
            epoch_verified_bytes: 0,
            epoch_full_bytes: 0,
            hist_verified_bytes: 0.0,
            hist_full_bytes: 0.0,
            insert_stack: Vec::new(),
            query_scratch: QueryScratch::new(),
            explored_scratch: Vec::new(),
            stats_epoch: 0,
            reorg_scratch,
            last_profile: ReorgProfile::default(),
            recent_merges: HashMap::new(),
            pass_thrash: 0,
            pass_moved: 0,
            pass_cooldown_blocked: 0,
            total_thrash: 0,
            checkpoint_id: 0,
            wal: None,
            wal_failure: None,
            reorg_fault_hook: None,
            reorg_wall_ns: 0,
            replaying: false,
        };
        if let Some(meta) = meta {
            if !(meta.hist_verified_bytes.is_finite() && meta.hist_full_bytes.is_finite()) {
                return Err(corrupt("non-finite byte history".into()));
            }
            index.total_queries = meta.total_queries;
            index.queries_since_reorg = meta.queries_since_reorg;
            index.structure_epoch = meta.structure_epoch;
            index.reorganizations = meta.reorganizations;
            index.stats_epoch = meta.stats_epoch;
            index.total_merges = meta.total_merges;
            index.total_splits = meta.total_splits;
            index.total_thrash = meta.total_thrash;
            index.epoch_verified_bytes = meta.epoch_verified_bytes;
            index.epoch_full_bytes = meta.epoch_full_bytes;
            index.hist_verified_bytes = meta.hist_verified_bytes;
            index.hist_full_bytes = meta.hist_full_bytes;
            index.recent_merges = meta.recent_merges.into_iter().collect();
            index.checkpoint_id = meta.checkpoint_id;
        }
        Ok(index)
    }

    /// Attaches a write-ahead log: every structural mutation from here
    /// on is appended to `wal` — and made durable per its flush policy
    /// — before being applied in memory. The log's dimensionality must
    /// match the index's.
    ///
    /// The log is aligned to the index's checkpoint generation: if its
    /// header carries a different checkpoint id (e.g. a fresh log
    /// attached to an index loaded from a checkpoint), it is reset and
    /// restamped so a later [`recover`] pairs it with the right
    /// checkpoint. To continue an existing log *with* its records, go
    /// through [`recover`] instead.
    ///
    /// [`recover`]: AdaptiveClusterIndex::recover
    pub fn attach_wal(&mut self, mut wal: Wal) -> Result<(), IndexError> {
        if wal.dims() != self.config.dims {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dims,
                actual: wal.dims(),
            });
        }
        if wal.checkpoint_id() != self.checkpoint_id {
            wal.reset_to(self.checkpoint_id).map_err(IndexError::Wal)?;
        }
        self.wal = Some(wal);
        Ok(())
    }

    /// Detaches and returns the write-ahead log, if one is attached.
    pub fn detach_wal(&mut self) -> Option<Wal> {
        self.wal.take()
    }

    /// Whether a write-ahead log is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// Forces every appended WAL record down to durable storage,
    /// regardless of the flush policy, and returns once it is there.
    ///
    /// Under `batch` and `epoch` this is the durability point: their
    /// barriers write the frames before the mutation returns (a process
    /// crash keeps them) but sync behind it, so a power cut can lose
    /// what was appended since the barrier before the last one.
    /// `sync_wal` waits for that sync and syncs the rest itself.
    pub fn sync_wal(&mut self) -> Result<(), IndexError> {
        if let Some(wal) = self.wal.as_mut() {
            wal.sync().map_err(IndexError::Wal)?;
        }
        Ok(())
    }

    /// The first WAL failure swallowed inside a reorganization pass, if
    /// any — the pass completes in memory and poisons the log instead
    /// of aborting between its atomic units (graceful degradation).
    pub fn wal_failure(&self) -> Option<&WalError> {
        self.wal_failure.as_ref()
    }

    /// Takes (and clears) the stashed reorganization WAL failure.
    pub fn take_wal_failure(&mut self) -> Option<WalError> {
        self.wal_failure.take()
    }

    /// Installs (or clears) the test-only reorganization fault hook
    /// fired at every [`ReorgFaultPoint`].
    #[doc(hidden)]
    pub fn set_reorg_fault_hook(
        &mut self,
        hook: Option<Box<dyn FnMut(ReorgFaultPoint) + Send + Sync>>,
    ) {
        self.reorg_fault_hook = hook;
    }

    #[inline]
    fn reorg_fault(&mut self, point: ReorgFaultPoint) {
        if let Some(hook) = self.reorg_fault_hook.as_mut() {
            hook(point);
        }
    }

    /// Appends a record on a user-facing mutation path: the failure
    /// aborts the mutation before any in-memory state has moved.
    fn wal_append(&mut self, record: &WalRecord) -> Result<(), IndexError> {
        if let Some(wal) = self.wal.as_mut() {
            wal.append(record).map_err(IndexError::Wal)?;
        }
        Ok(())
    }

    /// Appends a record inside a reorganization pass, which cannot
    /// abort between its atomic units: the first failure is stashed
    /// (the log is poisoned by the failed append, so no later record
    /// can silently succeed past the gap) and the pass completes in
    /// memory.
    fn wal_log_structural(&mut self, record: WalRecord) {
        let Some(wal) = self.wal.as_mut() else { return };
        if let Err(e) = wal.append(&record) {
            self.wal_failure.get_or_insert(e);
        }
    }

    /// Writes a checkpoint to `path` and, on success, truncates the
    /// attached WAL: the checkpoint now carries everything the log
    /// recorded, so recovery needs only the records appended after it.
    ///
    /// The two steps are coupled by a checkpoint id: the saved META
    /// record and the truncated log's header both carry the new id. A
    /// crash *between* them leaves the new checkpoint next to a log
    /// still stamped with the previous id — recovery detects the stale
    /// stamp and discards those records instead of double-applying
    /// history the checkpoint already absorbed. ([`save`] is durable
    /// before it returns: data fsync, rename, directory fsync.)
    ///
    /// A checkpoint is maintenance time: whatever disorder the write
    /// path has not folded yet is folded first, so the file lists every
    /// cluster's members in key order and a reload has nothing to order
    /// ([`save`] alone writes them as they are stored).
    ///
    /// [`save`]: AdaptiveClusterIndex::save
    pub fn checkpoint(&mut self, path: &Path) -> Result<(), IndexError> {
        self.order_segments();
        let id = self.checkpoint_id + 1;
        // The META record encodes `self.checkpoint_id`: bump before the
        // save, roll back if it fails so a retry reuses the id.
        self.checkpoint_id = id;
        if let Err(e) = self.save(path) {
            self.checkpoint_id = id - 1;
            return Err(e);
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.reset_to(id).map_err(IndexError::Wal)?;
        }
        Ok(())
    }

    /// Recovers an index after a crash: loads the `checkpoint` (an
    /// empty index under `config` when `None`), replays the surviving
    /// WAL suffix from `store` — [`Wal::reopen`] truncates the torn
    /// tail at the first bad checksum — validates the result via
    /// [`AdaptiveClusterIndex::check_invariants`], and re-attaches the
    /// repaired log under `policy` so logging continues seamlessly.
    ///
    /// The log's header stamp is matched against the checkpoint's id.
    /// A log stamped with an *older* checkpoint id is a crash caught
    /// between a checkpoint save and its WAL truncation: every one of
    /// its records is already absorbed by the checkpoint, so they are
    /// discarded (reported via
    /// [`RecoveryReport::superseded_records`]) and the log is reset to
    /// the checkpoint's generation. A log stamped *newer* than the
    /// checkpoint means the checkpoint that truncated it is missing —
    /// mutations would be silently lost, so recovery refuses.
    ///
    /// Replay drives the same public mutation paths a live index runs,
    /// so the recovered index is decision- and answer-identical to one
    /// that executed the surviving operation prefix directly.
    pub fn recover(
        checkpoint: Option<&Path>,
        store: Box<dyn BackingStore>,
        policy: FlushPolicy,
        config: IndexConfig,
    ) -> Result<(Self, RecoveryReport), IndexError> {
        let mut index = match checkpoint {
            Some(path) => Self::load(path, config)?,
            None => Self::new(config)?,
        };
        let (mut wal, replay) = Wal::reopen(store, policy, index.config.dims)?;
        if wal.checkpoint_id() > index.checkpoint_id {
            return Err(IndexError::Recovery {
                record: 0,
                detail: format!(
                    "wal is stamped with checkpoint {} but the loaded checkpoint is {}: \
                     the checkpoint that truncated this log is missing or stale",
                    wal.checkpoint_id(),
                    index.checkpoint_id
                ),
            });
        }
        // A stale stamp: the checkpoint was saved but the crash hit
        // before the log was truncated. Its records are history the
        // checkpoint already contains — replaying them would
        // double-apply structure and duplicate inserts.
        let stale = wal.checkpoint_id() < index.checkpoint_id;
        let (records, superseded, torn) = if stale {
            (&[] as &[WalRecord], replay.records.len() as u64, None)
        } else {
            (&replay.records[..], 0, replay.torn)
        };
        let mut epoch_changed = false;
        let mut by_signature = SlotsBySignature::default();
        for (slot, cluster) in index.clusters.iter().enumerate() {
            if let Some(cluster) = cluster {
                by_signature.insert(cluster.signature.to_bytes(), slot as u32);
            }
        }
        index.replaying = true;
        for (i, record) in records.iter().enumerate() {
            index
                .apply_wal_record(record, &mut by_signature, &mut epoch_changed)
                .map_err(|detail| IndexError::Recovery {
                    record: i as u64,
                    detail,
                })?;
        }
        index.replaying = false;
        // One ordering of everything instead of the write path's many.
        index.order_segments();
        index
            .check_invariants()
            .map_err(|detail| IndexError::Recovery {
                record: records.len() as u64,
                detail,
            })?;
        if stale {
            wal.reset_to(index.checkpoint_id)
                .map_err(IndexError::Wal)?;
        }
        let report = RecoveryReport {
            replayed_records: records.len() as u64,
            superseded_records: superseded,
            torn_tail: torn,
            clusters: index.cluster_count(),
            objects: index.len(),
        };
        index.wal = Some(wal);
        Ok((index, report))
    }

    /// Applies one replayed WAL record. Membership records run the
    /// public mutation paths (no log is attached yet, so nothing
    /// double-logs); structural records address their cluster by
    /// signature — slot numbers are checkpoint-stable but not
    /// log-stable, signatures are both — resolved through
    /// `by_signature`, which the record keeps current, and mirror
    /// exactly the state transitions the live pass performs around
    /// them.
    fn apply_wal_record(
        &mut self,
        record: &WalRecord,
        by_signature: &mut SlotsBySignature,
        epoch_changed: &mut bool,
    ) -> Result<(), String> {
        match record {
            WalRecord::Insert { id, coords } => {
                let rect = HyperRect::from_flat(coords).map_err(|e| e.to_string())?;
                self.insert(ObjectId(*id), rect).map_err(|e| e.to_string())
            }
            WalRecord::Remove { id } => self
                .remove(ObjectId(*id))
                .map(|_| ())
                .map_err(|e| e.to_string()),
            WalRecord::Update { id, coords } => {
                let rect = HyperRect::from_flat(coords).map_err(|e| e.to_string())?;
                self.update(ObjectId(*id), rect)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            WalRecord::Merge { signature } => {
                let slot = by_signature
                    .slot(signature)
                    .ok_or("merge of an unknown cluster signature")?;
                if slot == self.root {
                    return Err("merge of the root cluster".into());
                }
                self.merge_cluster(slot);
                by_signature.remove(signature, slot);
                self.total_merges += 1;
                *epoch_changed = true;
                Ok(())
            }
            WalRecord::Materialize {
                signature,
                candidate,
            } => {
                let slot = by_signature
                    .slot(signature)
                    .ok_or("materialization from an unknown cluster signature")?;
                // The live scan catches the counters up to the open
                // epoch before picking a candidate; mirror it so the
                // child inherits identically decayed statistics.
                self.materialize_candidates(slot);
                let ci = *candidate as usize;
                let ncand = self.stats_arena.slice(self.cluster(slot).candidates).len();
                if ci >= ncand {
                    return Err(format!("candidate {ci} out of range ({ncand} candidates)"));
                }
                let child = self.materialize_candidate(slot, ci);
                by_signature.insert(self.cluster(child).signature.to_bytes(), child);
                self.total_splits += 1;
                *epoch_changed = true;
                Ok(())
            }
            WalRecord::EpochClose => {
                self.close_epoch(*epoch_changed);
                *epoch_changed = false;
                Ok(())
            }
        }
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    ///
    /// Checks that every object is hosted by a cluster whose signature
    /// accepts it, that candidate `n` counters agree with the stored
    /// members (recounted from the segment columns, independently of the
    /// incremental recording that maintains them), that parent/child
    /// links are consistent, that every cluster's segment maps back to
    /// it, and that the store's position map names each member's place
    /// and nothing else (the members of all clusters number the map's
    /// entries, so an object in a segment no cluster owns is caught).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen_objects = 0usize;
        let mut flat = Vec::new();
        let mut expected_n = Vec::new();
        for (slot, cluster) in self.clusters.iter().enumerate() {
            let Some(cluster) = cluster else { continue };
            if self.segment_cluster.get(cluster.segment.0 as usize) != Some(&(slot as u32)) {
                return Err(format!("segment of cluster {slot} does not map back to it"));
            }
            let cands = self.stats_arena.slice(cluster.candidates);
            let ids = self.store.ids(cluster.segment);
            seen_objects += ids.len();
            for (k, &oid) in ids.iter().enumerate() {
                self.store.read_object_into(cluster.segment, k, &mut flat);
                if !cluster.signature.accepts_flat(&flat) {
                    return Err(format!(
                        "object #{oid} violates signature of cluster {slot}"
                    ));
                }
                if self.store.position_of(oid) != Some((cluster.segment, k)) {
                    return Err(format!("position map misplaces object #{oid}"));
                }
            }
            expected_n.clear();
            expected_n.resize(cands.len(), 0);
            cands.count_members(&self.store.columns(cluster.segment), &mut expected_n);
            for (ci, &expected) in expected_n.iter().enumerate() {
                if cands.n(ci) != expected {
                    return Err(format!(
                        "cluster {slot} candidate {ci}: n={} but {} members qualify",
                        cands.n(ci),
                        expected
                    ));
                }
            }
            let max_n = expected_n.iter().copied().max().unwrap_or(0);
            if cands.n_hi() < max_n {
                return Err(format!(
                    "cluster {slot}: cached member-count bound {} below actual maximum {max_n}",
                    cands.n_hi()
                ));
            }
            for &child in &cluster.children {
                let c = self
                    .clusters
                    .get(child as usize)
                    .and_then(|c| c.as_ref())
                    .ok_or_else(|| format!("cluster {slot} has dangling child {child}"))?;
                if c.parent != Some(slot as u32) {
                    return Err(format!("child {child} does not point back to {slot}"));
                }
            }
            if let Some(parent) = cluster.parent {
                let p = self.clusters[parent as usize]
                    .as_ref()
                    .ok_or_else(|| format!("cluster {slot} has dangling parent {parent}"))?;
                if !p.children.contains(&(slot as u32)) {
                    return Err(format!("parent {parent} does not list child {slot}"));
                }
            } else if slot as u32 != self.root {
                return Err(format!("non-root cluster {slot} has no parent"));
            }
        }
        if seen_objects != self.store.len() {
            return Err(format!(
                "{seen_objects} objects in clusters but {} in the position map",
                self.store.len()
            ));
        }
        self.stats_arena.check()?;
        if self.stats_arena.live_ranges() != self.cluster_count() {
            return Err(format!(
                "{} live arena ranges for {} clusters",
                self.stats_arena.live_ranges(),
                self.cluster_count()
            ));
        }
        Ok(())
    }
}

/// Shorthand for a corrupt-checkpoint error.
fn corrupt(msg: String) -> IndexError {
    IndexError::Store(acx_storage::StoreError::Corrupt(msg))
}

/// Records in the segment → cluster table that cluster `slot` owns
/// `segment`. The store hands out segment slots densely (a freed one or
/// the next), so the table grows by at most one entry.
fn assign_segment(segment_cluster: &mut Vec<u32>, segment: SegmentId, slot: u32) {
    let at = segment.0 as usize;
    if at == segment_cluster.len() {
        segment_cluster.push(slot);
    } else {
        segment_cluster[at] = slot;
    }
}

/// The live clusters by rendered signature, built once per recovery and
/// kept current by the replayed structural records: it resolves a
/// signature to the slot a scan of the slots in ascending order would
/// find, without the scan. Two live clusters can carry one signature —
/// specializations of different dimensions commute, so two branches of
/// the tree can reach the same one — so a signature keeps every slot
/// holding it and resolves to the lowest.
#[derive(Default)]
struct SlotsBySignature(HashMap<Vec<u8>, Vec<u32>>);

impl SlotsBySignature {
    fn insert(&mut self, signature: Vec<u8>, slot: u32) {
        self.0.entry(signature).or_default().push(slot);
    }

    fn slot(&self, signature: &[u8]) -> Option<u32> {
        self.0.get(signature)?.iter().copied().min()
    }

    fn remove(&mut self, signature: &[u8], slot: u32) {
        if let Some(slots) = self.0.get_mut(signature) {
            slots.retain(|&s| s != slot);
            if slots.is_empty() {
                self.0.remove(signature);
            }
        }
    }
}

/// Magic prefix of the checkpoint metadata record (record 0 of a
/// full-fidelity checkpoint). A legacy cluster record cannot collide:
/// its blob starts with a parent index (`0x4D58_4341` would require
/// over a billion clusters) and always carries members or a signature
/// of its own, while the metadata record has no ids and no coords.
const META_MAGIC: &[u8; 8] = b"ACXMETA1";

/// Per-cluster adaptive state carried by the checkpoint metadata,
/// aligned record-for-record with the cluster records that follow it.
struct ClusterMeta {
    /// The cluster's slot (recycled slot numbers stay stable across a
    /// save/load cycle, keeping replayed WAL suffixes deterministic).
    slot: u32,
    q_count: u64,
    epoch_start: u64,
    q_eff: f64,
    weight: f64,
    /// The candidate columns' lazy-decay stamp.
    stamp: u64,
    /// Cached upper bound on the candidates' member counts.
    n_hi: u32,
    /// Per-candidate epoch matching-query counters.
    cand_q: Vec<u32>,
    /// Per-candidate decayed matching-query histories.
    cand_q_eff: Vec<f64>,
}

/// The adaptive state a full-fidelity checkpoint carries beyond the
/// cluster tree itself: index-wide clocks and byte histories, the
/// per-cluster statistics, the free-slot stack, and the recent-merge
/// memory. Everything else (candidate `n` counters, scratch) is
/// recomputed or safely dropped on load.
struct CheckpointMeta {
    /// Id of the checkpoint this META record belongs to; matched
    /// against the WAL header's stamp during recovery.
    checkpoint_id: u64,
    total_queries: u64,
    queries_since_reorg: u64,
    structure_epoch: u64,
    reorganizations: u64,
    stats_epoch: u64,
    total_merges: u64,
    total_splits: u64,
    total_thrash: u64,
    epoch_verified_bytes: u64,
    epoch_full_bytes: u64,
    hist_verified_bytes: f64,
    hist_full_bytes: f64,
    clusters: Vec<ClusterMeta>,
    free_slots: Vec<u32>,
    recent_merges: Vec<(Vec<u8>, u64)>,
}

/// Bounds-checked little-endian reader over the metadata blob.
struct MetaCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MetaCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("checkpoint metadata truncated at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
}

impl CheckpointMeta {
    /// Whether a store record is the checkpoint metadata record.
    fn is_meta(record: &ClusterRecord) -> bool {
        record.ids.is_empty()
            && record.coords.is_empty()
            && record.signature.starts_with(META_MAGIC)
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(META_MAGIC);
        for v in [
            self.checkpoint_id,
            self.total_queries,
            self.queries_since_reorg,
            self.structure_epoch,
            self.reorganizations,
            self.stats_epoch,
            self.total_merges,
            self.total_splits,
            self.total_thrash,
            self.epoch_verified_bytes,
            self.epoch_full_bytes,
            self.hist_verified_bytes.to_bits(),
            self.hist_full_bytes.to_bits(),
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.clusters.len() as u32).to_le_bytes());
        for c in &self.clusters {
            out.extend_from_slice(&c.slot.to_le_bytes());
            out.extend_from_slice(&c.q_count.to_le_bytes());
            out.extend_from_slice(&c.epoch_start.to_le_bytes());
            out.extend_from_slice(&c.q_eff.to_bits().to_le_bytes());
            out.extend_from_slice(&c.weight.to_bits().to_le_bytes());
            out.extend_from_slice(&c.stamp.to_le_bytes());
            out.extend_from_slice(&c.n_hi.to_le_bytes());
            out.extend_from_slice(&(c.cand_q.len() as u32).to_le_bytes());
            for &q in &c.cand_q {
                out.extend_from_slice(&q.to_le_bytes());
            }
            for &q_eff in &c.cand_q_eff {
                out.extend_from_slice(&q_eff.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.free_slots.len() as u32).to_le_bytes());
        for &slot in &self.free_slots {
            out.extend_from_slice(&slot.to_le_bytes());
        }
        out.extend_from_slice(&(self.recent_merges.len() as u32).to_le_bytes());
        for (signature, pass) in &self.recent_merges {
            out.extend_from_slice(&(signature.len() as u32).to_le_bytes());
            out.extend_from_slice(signature);
            out.extend_from_slice(&pass.to_le_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut cur = MetaCursor { bytes, pos: 0 };
        if cur.take(META_MAGIC.len())? != META_MAGIC {
            return Err("checkpoint metadata magic mismatch".into());
        }
        let checkpoint_id = cur.u64()?;
        let total_queries = cur.u64()?;
        let queries_since_reorg = cur.u64()?;
        let structure_epoch = cur.u64()?;
        let reorganizations = cur.u64()?;
        let stats_epoch = cur.u64()?;
        let total_merges = cur.u64()?;
        let total_splits = cur.u64()?;
        let total_thrash = cur.u64()?;
        let epoch_verified_bytes = cur.u64()?;
        let epoch_full_bytes = cur.u64()?;
        let hist_verified_bytes = cur.f64()?;
        let hist_full_bytes = cur.f64()?;
        let cluster_count = cur.u32()?;
        let mut clusters = Vec::new();
        for _ in 0..cluster_count {
            let slot = cur.u32()?;
            let q_count = cur.u64()?;
            let epoch_start = cur.u64()?;
            let q_eff = cur.f64()?;
            let weight = cur.f64()?;
            let stamp = cur.u64()?;
            let n_hi = cur.u32()?;
            let ncand = cur.u32()?;
            let mut cand_q = Vec::new();
            for _ in 0..ncand {
                cand_q.push(cur.u32()?);
            }
            let mut cand_q_eff = Vec::new();
            for _ in 0..ncand {
                cand_q_eff.push(cur.f64()?);
            }
            clusters.push(ClusterMeta {
                slot,
                q_count,
                epoch_start,
                q_eff,
                weight,
                stamp,
                n_hi,
                cand_q,
                cand_q_eff,
            });
        }
        let free_count = cur.u32()?;
        let mut free_slots = Vec::new();
        for _ in 0..free_count {
            free_slots.push(cur.u32()?);
        }
        let merge_count = cur.u32()?;
        let mut recent_merges = Vec::new();
        for _ in 0..merge_count {
            let len = cur.u32()? as usize;
            let signature = cur.take(len)?.to_vec();
            let pass = cur.u64()?;
            recent_merges.push((signature, pass));
        }
        if cur.pos != bytes.len() {
            return Err(format!(
                "checkpoint metadata has {} trailing bytes",
                bytes.len() - cur.pos
            ));
        }
        Ok(Self {
            checkpoint_id,
            total_queries,
            queries_since_reorg,
            structure_epoch,
            reorganizations,
            stats_epoch,
            total_merges,
            total_splits,
            total_thrash,
            epoch_verified_bytes,
            epoch_full_bytes,
            hist_verified_bytes,
            hist_full_bytes,
            clusters,
            free_slots,
            recent_merges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_adds_only_as_many_counters_as_the_cluster_has() {
        // A reused delta keeps each slot's counter vector at the widest
        // cluster the slot ever held. Once the slot is recycled for a
        // cluster with fewer candidates, applying must stop at the
        // cluster's own range — whatever the surplus holds — and leave
        // the next range of the slab alone.
        let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
        let root = index.root;
        let neighbour = index
            .stats_arena
            .alloc(&generate_candidates(&Signature::root(2), 4));
        let len = index.stats_arena.slice(index.cluster(root).candidates).len();
        let mut delta = StatsDelta::new();
        let entry = delta.cluster_mut(root, len + 5);
        entry.q_count = 3;
        entry.cand_q.fill(2);
        delta.queries = 3;
        index.apply_stats(&delta);

        let cands = index.stats_arena.slice(index.cluster(root).candidates);
        assert_eq!(cands.q_col(), &vec![2; len][..]);
        assert_eq!(index.cluster(root).q_count, 3);
        let next = index.stats_arena.slice(neighbour);
        assert!(next.q_col().iter().all(|&q| q == 0), "the surplus spilled over");

        // Recording after a clear keeps the wide vector and writes only
        // the cluster's own prefix of it.
        delta.clear();
        let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
        index.query_recorded_with(&q, &mut delta, &mut QueryScratch::new());
        let entry = &delta.clusters[root as usize];
        assert_eq!(entry.cand_q.len(), len + 5);
        assert!(entry.cand_q[..len].contains(&1));
        assert!(entry.cand_q[len..].iter().all(|&q| q == 0));
    }

    #[test]
    fn exact_equality_ties() {
        assert!(probabilities_tie(0.0, 0.0));
        assert!(probabilities_tie(0.25, 0.25));
        assert!(probabilities_tie(1.0, 1.0));
    }

    #[test]
    fn rounding_noise_ties_but_real_differences_do_not() {
        // One-ulp discrepancies, as produced by decayed counters that
        // accumulate the same history along different float paths.
        let p = 1.0 / 3.0;
        assert!(probabilities_tie(p, p + f64::EPSILON / 3.0));
        assert!(probabilities_tie(0.9f64.mul_add(10.0, 10.0) / 19.0, 1.0));
        // Genuine probability differences must still order clusters.
        assert!(!probabilities_tie(0.5, 0.500001));
        assert!(!probabilities_tie(0.0, 0.01));
        assert!(!probabilities_tie(1e-3, 2e-3));
    }

    #[test]
    fn tie_is_symmetric() {
        let (a, b) = (0.7, 0.7 + 1e-13);
        assert_eq!(probabilities_tie(a, b), probabilities_tie(b, a));
    }

    /// A 3-d index on the paper's platform that has split under a skewed
    /// query stream and then lost some members (so some `n_hi` bounds
    /// are loose), and that passes its own consistency check.
    fn clustered_index() -> AdaptiveClusterIndex {
        let dims = 3;
        let mut index = AdaptiveClusterIndex::new(IndexConfig {
            reorg_period: 0,
            ..IndexConfig::edbt2004(dims, acx_storage::StorageScenario::Memory)
        })
        .unwrap();
        let mut state = 0x5EED_u64;
        let mut coord = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as Scalar / (1u64 << 24) as Scalar
        };
        for i in 0..1500u32 {
            let (lo, hi): (Vec<Scalar>, Vec<Scalar>) = (0..dims)
                .map(|_| {
                    let (a, b) = (coord(), coord());
                    (a.min(b), a.min(b) + (a - b).abs() * 0.2)
                })
                .unzip();
            index
                .insert(ObjectId(i), HyperRect::from_bounds(&lo, &hi).unwrap())
                .unwrap();
        }
        let queries: Vec<SpatialQuery> = (0..60)
            .map(|_| SpatialQuery::point_enclosing((0..dims).map(|_| coord() * 0.3).collect()))
            .collect();
        for _ in 0..6 {
            for q in &queries {
                index.execute(q);
            }
            index.reorganize();
        }
        for i in (0..1500u32).step_by(7) {
            index.remove(ObjectId(i)).unwrap();
        }
        assert!(index.cluster_count() > 1, "test premise: the index split");
        index.check_invariants().unwrap();
        index
    }

    /// A live non-root cluster with at least two members.
    fn populated_child(index: &AdaptiveClusterIndex) -> u32 {
        (0..index.clusters.len() as u32)
            .find(|&slot| {
                slot != index.root
                    && index.clusters[slot as usize]
                        .as_ref()
                        .is_some_and(|c| index.store.segment_len(c.segment) >= 2)
            })
            .expect("test premise: a child holds members")
    }

    #[test]
    fn check_invariants_catches_a_member_count_off_by_one() {
        let mut index = clustered_index();
        let slot = populated_child(&index);
        let handle = index.cluster(slot).candidates;
        index.stats_arena.slice_mut(handle).n_col_mut()[3] += 1;
        let err = index.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("cluster {slot} candidate 3")),
            "{err}"
        );
    }

    #[test]
    fn check_invariants_catches_a_member_outside_its_signature() {
        let mut index = clustered_index();
        let slot = populated_child(&index);
        let cluster = index.cluster(slot);
        let (segment, handle) = (cluster.segment, cluster.candidates);
        let outside = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        assert!(!cluster.signature.accepts_flat(&outside), "test premise");
        // Every position and count agrees: only the signature is violated.
        index.store.push(segment, 9999, &outside);
        index.stats_arena.slice_mut(handle).record_member(&outside);
        let last = index.store.segment_len(segment) - 1;
        assert_eq!(index.store.position_of(9999), Some((segment, last)));
        assert!(index.contains(ObjectId(9999)));
        let err = index.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!(
                "object #9999 violates signature of cluster {slot}"
            )),
            "{err}"
        );
    }

    #[test]
    fn check_invariants_catches_a_misplaced_position_entry() {
        let mut index = clustered_index();
        let slot = populated_child(&index);
        let segment = index.cluster(slot).segment;
        let moved = index.store.ids(segment)[0];
        index.store.misplace_for_test(moved, 1);
        let err = index.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("position map misplaces object #{moved}")),
            "{err}"
        );
    }

    /// The index's object count is the store's; an object the store
    /// holds in a segment no cluster owns is an entry no cluster's
    /// members account for.
    #[test]
    fn check_invariants_catches_an_object_in_a_segment_no_cluster_owns() {
        let mut index = clustered_index();
        let orphan = index.store.create(1);
        index.store.push(orphan, 9999, &[0.5; 6]);
        let err = index.check_invariants().unwrap_err();
        assert!(
            err.contains("objects in clusters but") && err.contains("in the position map"),
            "{err}"
        );
    }

    /// A reload rebuilds every member count from the stored members
    /// alone; it must find the live index's counts and carry its bounds,
    /// and saving the reloaded index must write the same file.
    #[test]
    fn save_load_save_is_byte_identical_and_recounts_the_live_counts() {
        let index = clustered_index();
        let dir = std::env::temp_dir();
        let first = dir.join(format!("acx-resave-{}-a.ckpt", std::process::id()));
        let second = dir.join(format!("acx-resave-{}-b.ckpt", std::process::id()));
        index.save(&first).unwrap();
        let loaded = AdaptiveClusterIndex::load(&first, index.config.clone()).unwrap();
        loaded.save(&second).unwrap();
        let (a, b) = (
            std::fs::read(&first).unwrap(),
            std::fs::read(&second).unwrap(),
        );
        std::fs::remove_file(&first).unwrap();
        std::fs::remove_file(&second).unwrap();
        assert!(a == b, "the reloaded index wrote a different checkpoint");

        let mut loose = 0;
        for (slot, cluster) in index.clusters.iter().enumerate() {
            let Some(cluster) = cluster else { continue };
            let live = index.stats_arena.slice(cluster.candidates);
            let back = loaded
                .stats_arena
                .slice(loaded.cluster(slot as u32).candidates);
            assert_eq!(back.n_col(), live.n_col(), "cluster {slot} member counts");
            assert_eq!(back.n_hi(), live.n_hi(), "cluster {slot} bound");
            loose += usize::from(live.n_col().iter().max() < Some(&live.n_hi()));
        }
        assert!(loose > 0, "test premise: a removal left some bound loose");
        loaded.check_invariants().unwrap();
    }
}
