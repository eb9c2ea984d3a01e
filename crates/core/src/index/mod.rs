//! The adaptive cost-based clustering index (paper §3).
//!
//! Objects live in a tree of materialized clusters, each holding its
//! members sequentially in a [`SegmentStore`] segment, with a signature,
//! access statistics and *virtual* candidate subclusters. Every
//! `reorg_period` queries a pass merges clusters into their parents or
//! splits off profitable candidates. This module owns the tree and the
//! membership paths; `crates/core/src/README.md` maps the others.

use std::collections::HashMap;

use acx_geom::{HyperRect, ObjectId, Scalar};
use acx_storage::{CostModel, SegmentId, SegmentStore, Wal, WalError, WalRecord};

use crate::candidates::CandidateSet;
use crate::metrics::{ClusterSnapshot, ReorgProfile};
use crate::signature::Signature;
use crate::{IndexConfig, IndexError};

mod checkpoint;
mod children;
mod policy;
mod query;
mod recovery;
mod reorg;

pub(crate) use checkpoint::cluster_frame_bytes;
use children::ChildTable;
pub use query::QueryScratch;
pub use reorg::ReorgFaultPoint;
use reorg::ReorgScratch;

/// Segments of less than two kernel blocks have no block to save.
const FOLD_MIN_MEMBERS: usize = 2 * acx_geom::scan::BLOCK;

/// Relative tolerance under which two access probabilities count as tied
/// during insertion (paper §3.5: ties prefer the most specific cluster).
/// Exact float equality almost never holds once probabilities are nonzero
/// — decayed counters accumulate rounding — so the preference would
/// otherwise never fire in a warmed-up index.
const PROB_TIE_RELATIVE_EPS: f64 = 1e-9;

/// Whether two access probabilities are equal up to accumulated float
/// rounding (relative epsilon; exact zeros tie).
fn probabilities_tie(a: f64, b: f64) -> bool {
    (a - b).abs() <= PROB_TIE_RELATIVE_EPS * a.abs().max(b.abs())
}

/// The index-wide clocks and counters, in the order the checkpoint's
/// clocks frame stores them (`checkpoint.rs` encodes them in one place).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Clocks {
    /// Id of the last completed checkpoint (0 = never), also stamped
    /// into the WAL header so recovery can tell a live log suffix from
    /// records the checkpoint it loads already absorbed.
    checkpoint_id: u64,
    total_queries: u64,
    queries_since_reorg: u64,
    /// Bumped whenever a reorganization changes the clustering (merges
    /// may recycle cluster slots); stamps [`crate::StatsDelta`]s so stale
    /// per-cluster increments are never misattributed.
    structure_epoch: u64,
    /// Passes run: the clock recent merges are stamped with.
    reorganizations: u64,
    /// Completed statistics epochs (one per pass) — the clock the
    /// per-cluster decay stamps lag behind.
    stats_epoch: u64,
    total_merges: u64,
    total_splits: u64,
    total_thrash: u64,
    /// Verified bytes in the current epoch (early-exit accounted).
    epoch_verified_bytes: u64,
    /// Full-object bytes of the objects verified in the current epoch.
    epoch_full_bytes: u64,
    /// Exponentially decayed verified-byte history.
    hist_verified_bytes: f64,
    /// Exponentially decayed full-byte history.
    hist_full_bytes: f64,
}

/// One materialized cluster (paper §3.1).
#[derive(Debug)]
struct Cluster {
    signature: Signature,
    parent: Option<u32>,
    /// The children, in live order, each with the dimensions where its
    /// signature differs from this one's.
    children: ChildTable,
    segment: SegmentId,
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
    clusters: Vec<Option<Cluster>>,
    /// Each cluster's candidate statistics, indexed by cluster slot
    /// beside `clusters`; a free slot holds the empty set.
    candidates: Vec<CandidateSet>,
    free_slots: Vec<u32>,
    root: u32,
    /// Segment slot → the slot of the cluster that owns the segment. An
    /// object's cluster is found through its segment, read from the
    /// store's id table: the index keeps no id map of its own.
    /// Written where a cluster gets its segment; a merged-away
    /// cluster's entry is stale until the store reuses the segment slot.
    segment_cluster: Vec<u32>,
    /// The clocks and counters a checkpoint carries.
    clocks: Clocks,
    /// DFS stack of `insert`'s descent, `(slot, depth)`, kept for its
    /// capacity (a wide root regrew a fresh one per insert).
    insert_stack: Vec<(u32, usize)>,
    /// Scratch arena reused by `execute`.
    query_scratch: QueryScratch,
    /// Buffers reused by the reorganization pass.
    reorg_scratch: ReorgScratch,
    /// Work profile of the most recent reorganization pass.
    last_profile: ReorgProfile,
    /// Recently merged-away cluster signatures (rendered bytes → the
    /// pass count at merge time), feeding the thrash counter. Pruned
    /// each pass to `THRASH_WINDOW` passes of history.
    recent_merges: HashMap<Vec<u8>, u64>,
    /// The attached write-ahead log, when durability is enabled. Every
    /// structural mutation is appended (and, per the flush policy, made
    /// durable) *before* it is applied in memory.
    wal: Option<Wal>,
    /// First WAL failure swallowed inside a reorganization pass: the
    /// pass cannot abort between its atomic units without losing the
    /// log/memory correspondence, so it completes in memory, the log is
    /// poisoned, and the failure is surfaced here for the caller
    /// ([`AdaptiveClusterIndex::wal_failure`]).
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

impl AdaptiveClusterIndex {
    /// Creates an empty index: a single root cluster whose general
    /// signature accepts any spatial object.
    pub fn new(config: IndexConfig) -> Result<Self, IndexError> {
        config.validate()?;
        let mut store = SegmentStore::new(config.dims);
        let segment = store.create(16);
        let signature = Signature::root(config.dims);
        let candidates = vec![CandidateSet::generate(&signature, config.division_factor)];
        let root = Cluster {
            signature,
            parent: None,
            children: ChildTable::default(),
            segment,
            q_count: 0,
            epoch_start: 0,
            q_eff: 0.0,
            weight: 0.0,
        };
        let mut segment_cluster = Vec::new();
        assign_segment(&mut segment_cluster, segment, 0);
        let clusters = vec![Some(root)];
        Ok(Self::with_tree(
            config,
            store,
            clusters,
            candidates,
            Vec::new(),
            0,
            segment_cluster,
        ))
    }

    /// The one constructor: an index over a built cluster tree, with
    /// zeroed clocks, no merge memory, no log and empty scratch.
    fn with_tree(
        config: IndexConfig,
        store: SegmentStore,
        clusters: Vec<Option<Cluster>>,
        candidates: Vec<CandidateSet>,
        free_slots: Vec<u32>,
        root: u32,
        segment_cluster: Vec<u32>,
    ) -> Self {
        Self {
            model: config.cost_model(),
            reorg_scratch: ReorgScratch::with_candidate_capacity(&config),
            config,
            store,
            clusters,
            candidates,
            free_slots,
            root,
            segment_cluster,
            clocks: Clocks::default(),
            insert_stack: Vec::new(),
            query_scratch: QueryScratch::new(),
            last_profile: ReorgProfile::default(),
            recent_merges: HashMap::new(),
            wal: None,
            wal_failure: None,
            reorg_fault_hook: None,
            reorg_wall_ns: 0,
            replaying: false,
        }
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
        self.clocks.total_queries
    }

    /// Reorganization passes run so far.
    pub fn reorganizations(&self) -> u64 {
        self.clocks.reorganizations
    }

    /// Total merge operations across all reorganizations.
    pub fn total_merges(&self) -> u64 {
        self.clocks.total_merges
    }

    /// Total materializations across all reorganizations.
    pub fn total_splits(&self) -> u64 {
        self.clocks.total_splits
    }

    /// Total split→merge→split thrash cycles across all reorganizations:
    /// materializations that re-created a cluster signature merged away
    /// a few passes earlier (see [`ReorgProfile::thrash_cycles`]).
    pub fn total_thrash(&self) -> u64 {
        self.clocks.total_thrash
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

    /// `DimensionMismatch` unless `actual` is the index's dimensionality.
    #[inline]
    fn check_dims(&self, actual: usize) -> Result<(), IndexError> {
        let expected = self.config.dims;
        if actual == expected {
            return Ok(());
        }
        Err(IndexError::DimensionMismatch { expected, actual })
    }

    #[inline]
    fn cluster(&self, slot: u32) -> &Cluster {
        self.clusters[slot as usize]
            .as_ref()
            .expect("cluster slot is live")
    }

    #[inline]
    fn cluster_mut(&mut self, slot: u32) -> &mut Cluster {
        self.clusters[slot as usize]
            .as_mut()
            .expect("cluster slot is live")
    }

    /// Access probability of a cluster: decayed history plus the current
    /// (partial) epoch.
    #[inline]
    fn access_probability(&self, c: &Cluster) -> f64 {
        let epoch_len = self.clocks.total_queries.saturating_sub(c.epoch_start) as f64;
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
        let c = &self.clocks;
        let denom = c.hist_full_bytes + c.epoch_full_bytes as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        ((c.hist_verified_bytes + c.epoch_verified_bytes as f64) / denom).clamp(0.0, 1.0)
    }

    /// Inserts a new object (paper §3.5, Fig. 4): among all materialized
    /// clusters whose signature accepts the object, the one with the
    /// lowest access probability is chosen (ties broken towards the most
    /// specific cluster). An object the root's signature rejects — a
    /// coordinate outside the domain — fails with
    /// [`IndexError::OutOfDomain`] before anything is logged.
    pub fn insert(&mut self, id: ObjectId, rect: HyperRect) -> Result<(), IndexError> {
        self.check_dims(rect.dims())?;
        if self.store.contains_object(id.raw()) {
            return Err(IndexError::DuplicateObject(id.raw()));
        }
        let mut flat = rect.to_flat();
        if !self.cluster(self.root).signature.accepts_flat(&flat) {
            return Err(IndexError::OutOfDomain(id.raw()));
        }
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
        let slot = self.choose_cluster(&flat);
        let segment = self.cluster(slot).segment;
        self.candidates[slot as usize].record_member(&flat);
        let pushed = self.store.push(segment, id.raw(), &flat);
        debug_assert!(pushed, "object #{} was checked absent above", id.raw());
        self.fold_if_due(segment);
        Ok(())
    }

    /// The cluster an object the root accepts is inserted into (paper
    /// §3.5, Fig. 4): backward compatibility makes acceptance
    /// hereditary, so the descent prunes subtrees whose root rejects the
    /// object. A child is tested in the dimensions where it differs from
    /// its accepting parent only, so every slot on the stack accepts the
    /// object.
    fn choose_cluster(&mut self, flat: &[Scalar]) -> u32 {
        let mut best: Option<(u32, f64, usize)> = None; // (slot, p, depth)
        let mut stack = std::mem::take(&mut self.insert_stack);
        stack.clear();
        stack.push((self.root, 0));
        while let Some((slot, depth)) = stack.pop() {
            let cluster = self.cluster(slot);
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
            for row in cluster.children.rows() {
                let accepted = row.accepts_flat(flat);
                debug_assert_eq!(
                    accepted,
                    self.cluster(row.slot).signature.accepts_flat(flat),
                    "child row of cluster {} disagrees with its signature",
                    row.slot
                );
                if accepted {
                    stack.push((row.slot, depth + 1));
                }
            }
        }
        self.insert_stack = stack;
        let (slot, _, _) = best.expect("the root accepts the object");
        slot
    }

    /// Keeps segments in key order from the write path: the mutation
    /// that brings a segment's disorder ([`SegmentStore::disorder`]) to
    /// half its length pays for ordering it (about 50 ns a member), so
    /// no query and no pass ever does — once per doubling of a growing
    /// segment. Passes keep the order they find.
    fn fold_if_due(&mut self, segment: SegmentId) {
        let due = self.store.segment_len(segment).max(FOLD_MIN_MEMBERS);
        if !self.replaying && 2 * self.store.disorder(segment) >= due {
            self.store.order(segment);
        }
    }

    /// Removes an object, returning its rectangle. The object is located
    /// through the store's id table in O(1) — no segment scan — and
    /// its cluster through its segment; an unknown id fails before
    /// anything is logged.
    pub fn remove(&mut self, id: ObjectId) -> Result<HyperRect, IndexError> {
        let (segment, idx) = self
            .store
            .position_of(id.raw())
            .ok_or(IndexError::UnknownObject(id.raw()))?;
        self.wal_append(&WalRecord::Remove { id: id.raw() })?;
        let mut flat = Vec::new();
        self.store.read_object_into(segment, idx, &mut flat);
        let slot = self.segment_cluster[segment.0 as usize];
        debug_assert_eq!(self.cluster(slot).segment, segment);
        self.candidates[slot as usize].unrecord_member(&flat);
        self.store.swap_remove(segment, idx);
        self.fold_if_due(segment);
        Ok(HyperRect::from_flat(&flat)?)
    }

    /// Returns the rectangle of an indexed object, located through the
    /// store's id table in O(1) — no per-object work at any index
    /// size.
    pub fn get(&self, id: ObjectId) -> Option<HyperRect> {
        let (segment, idx) = self.store.position_of(id.raw())?;
        let mut flat = Vec::new();
        self.store.read_object_into(segment, idx, &mut flat);
        HyperRect::from_flat(&flat).ok()
    }

    /// Replaces the rectangle of an existing object. A rectangle outside
    /// the domain fails with [`IndexError::OutOfDomain`] before anything
    /// is logged, and the object keeps its old one.
    ///
    /// One record is logged, and the object moves as a
    /// [`AdaptiveClusterIndex::remove`] and an
    /// [`AdaptiveClusterIndex::insert`] would move it, in their order,
    /// but its id is looked up once: the store keeps the object's id
    /// table slot while it is out of every segment.
    pub fn update(&mut self, id: ObjectId, rect: HyperRect) -> Result<HyperRect, IndexError> {
        self.check_dims(rect.dims())?;
        let (old_segment, idx) = self
            .store
            .position_of(id.raw())
            .ok_or(IndexError::UnknownObject(id.raw()))?;
        if !self.cluster(self.root).signature.accepts_rect(&rect) {
            return Err(IndexError::OutOfDomain(id.raw()));
        }
        let mut flat = rect.to_flat();
        if self.wal.is_some() {
            let record = WalRecord::Update {
                id: id.raw(),
                coords: flat,
            };
            self.wal_append(&record)?;
            let WalRecord::Update { coords, .. } = record else {
                unreachable!("built as an update above")
            };
            flat = coords;
        }
        let mut old = Vec::new();
        self.store.read_object_into(old_segment, idx, &mut old);
        let old_slot = self.segment_cluster[old_segment.0 as usize];
        debug_assert_eq!(self.cluster(old_slot).segment, old_segment);
        self.candidates[old_slot as usize].unrecord_member(&old);
        let taken = self.store.take_out(old_segment, idx);
        self.fold_if_due(old_segment);
        let slot = self.choose_cluster(&flat);
        let segment = self.cluster(slot).segment;
        self.candidates[slot as usize].record_member(&flat);
        self.store.put_back(segment, taken, &flat);
        self.fold_if_due(segment);
        Ok(HyperRect::from_flat(&old)?)
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
            stack.extend(cluster.children.slots().map(|child| (child, depth + 1)));
        }
        out
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    ///
    /// Checks that every object is hosted by a cluster whose signature
    /// accepts it, that candidate `n` counters agree with the stored
    /// members (recounted from the segment columns, independently of the
    /// incremental recording that maintains them), that parent/child
    /// links are consistent and form one tree under the root, that every
    /// cluster's segment maps back to it, and that the store's id table
    /// names each member's place and nothing else (the members of all
    /// clusters number the table's entries, so an object in a segment
    /// no cluster owns is caught), and that every slot holds one
    /// candidate set whose fixed columns are its signature's
    /// generation.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.candidates.len() != self.clusters.len() {
            return Err(format!(
                "{} candidate sets for {} cluster slots",
                self.candidates.len(),
                self.clusters.len()
            ));
        }
        let mut seen_objects = 0usize;
        let mut accepted = Vec::new();
        let mut expected_n = Vec::new();
        for (slot, cluster) in self.clusters.iter().enumerate() {
            let Some(cluster) = cluster else { continue };
            if self.segment_cluster.get(cluster.segment.0 as usize) != Some(&cluster_slot(slot)) {
                return Err(format!("segment of cluster {slot} does not map back to it"));
            }
            let cands = &self.candidates[slot];
            let generated = CandidateSet::generate(&cluster.signature, self.config.division_factor);
            if !cands.same_layout(&generated) {
                return Err(format!(
                    "cluster {slot}: candidate columns differ from its signature's generation"
                ));
            }
            let ids = self.store.ids(cluster.segment);
            seen_objects += ids.len();
            let members = self.store.columns(cluster.segment);
            if let Some(k) = cluster.signature.first_rejected(&members, &mut accepted) {
                return Err(format!(
                    "object #{} violates signature of cluster {slot}",
                    ids[k]
                ));
            }
            expected_n.clear();
            expected_n.resize(cands.len(), 0);
            cands.count_members(&members, &mut expected_n);
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
        }
        self.store.check_positions()?;
        if seen_objects != self.store.len() {
            return Err(format!(
                "{seen_objects} objects in clusters but {} in the id table",
                self.store.len()
            ));
        }
        self.check_tree()
    }

    /// That the clusters form one tree under the root: every live cluster
    /// is reached from it exactly once (no self-parent, no cycle, no
    /// detached component, no child missing from its parent's table),
    /// through the child table of the parent it names; each child's
    /// signature lies within its parent's, dimension by dimension — what
    /// a merge relies on when it hands the child's members to the parent
    /// — and its row holds exactly the dimensions where the two differ,
    /// which is all either descent tests. O(clusters · dims).
    fn check_tree(&self) -> Result<(), String> {
        let live = |slot: u32| self.clusters.get(slot as usize).and_then(Option::as_ref);
        let mut seen = vec![false; self.clusters.len()];
        let mut stack = vec![self.root];
        let mut reached = 0;
        while let Some(slot) = stack.pop() {
            let cluster = live(slot).ok_or_else(|| format!("cluster {slot} is not live"))?;
            if std::mem::replace(&mut seen[slot as usize], true) {
                return Err(format!("cluster {slot} is reached twice from the root"));
            }
            reached += 1;
            for row in cluster.children.rows() {
                let child = row.slot;
                let c = live(child).ok_or_else(|| format!("dangling child {child}"))?;
                if c.parent != Some(slot) {
                    return Err(format!("child {child} does not point back to {slot}"));
                }
                if !c.signature.within(&cluster.signature) {
                    return Err(format!(
                        "signature of cluster {child} is not within its parent {slot}'s"
                    ));
                }
                if !row.is_current(&cluster.signature, &c.signature) {
                    return Err(format!(
                        "the row of child {child} in cluster {slot} is stale"
                    ));
                }
                stack.push(child);
            }
        }
        if reached != self.cluster_count() {
            return Err(format!(
                "only {reached} of {} clusters are reachable from the root",
                self.cluster_count()
            ));
        }
        Ok(())
    }
}

/// `index` as a cluster slot, which the log's replay, the checkpoint and
/// every child table hold as a `u32`.
///
/// # Panics
///
/// Panics if `index` does not fit in a `u32`: a wrapped slot would name
/// another cluster.
fn cluster_slot(index: usize) -> u32 {
    u32::try_from(index).expect("an index holds at most u32::MAX cluster slots")
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::StatsDelta;
    use acx_geom::SpatialQuery;

    /// The two statistics-writing paths run one recorder: a stream
    /// through `execute` and the same stream through one-query deltas
    /// leave every candidate set equal, unexpanded notes included, and
    /// every cluster's counters and the clocks, across automatic passes.
    #[test]
    fn execute_and_one_query_deltas_leave_equal_statistics() {
        use acx_testkit::{random_grid_query, random_grid_rect};
        use rand::{rngs::StdRng, SeedableRng};
        use std::borrow::Cow;

        let dims = 3;
        let mut config = IndexConfig::edbt2004(dims, acx_storage::StorageScenario::Memory);
        config.reorg_period = 40;
        let new = || AdaptiveClusterIndex::new(config.clone()).unwrap();
        let (mut direct, mut two_phase) = (new(), new());
        let mut rng = StdRng::seed_from_u64(0x0E5);
        for i in 0..600 {
            let rect = random_grid_rect(&mut rng, dims, 8);
            direct.insert(ObjectId(i), rect.clone()).unwrap();
            two_phase.insert(ObjectId(i), rect).unwrap();
        }
        let counters = |index: &AdaptiveClusterIndex| -> Vec<_> {
            let live = index.clusters.iter().flatten();
            live.map(|c| {
                (
                    c.q_count,
                    c.epoch_start,
                    c.q_eff.to_bits(),
                    c.weight.to_bits(),
                )
            })
            .collect()
        };
        let (mut delta, mut scratch) = (StatsDelta::new(), QueryScratch::new());
        let mut pending = false;
        for k in 0..130 {
            let q = random_grid_query(&mut rng, dims, 8);
            direct.execute(&q);
            delta.clear();
            two_phase.query_recorded_with(&q, &mut delta, &mut scratch);
            two_phase.apply_stats(&delta);
            assert!(
                direct.candidates == two_phase.candidates,
                "candidate sets after query {k}"
            );
            assert_eq!(
                counters(&direct),
                counters(&two_phase),
                "clusters after query {k}"
            );
            assert_eq!(direct.clocks, two_phase.clocks, "clocks after query {k}");
            pending |= direct
                .candidates
                .iter()
                .any(|c| matches!(c.expanded_q(), Cow::Owned(_)));
        }
        assert!(
            direct.reorganizations() >= 3,
            "test premise: passes crossed"
        );
        assert!(
            direct.cluster_count() > 1,
            "test premise: clusters materialized"
        );
        assert!(pending, "test premise: notes were pending");
        two_phase.check_invariants().unwrap();
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
        (0..cluster_slot(index.clusters.len()))
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
        index.candidates[slot as usize].n_col_mut()[3] += 1;
        let err = index.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("cluster {slot} candidate 3")),
            "{err}"
        );
    }

    /// A set generated for another signature, at another division
    /// factor, or taken out of its slot counts the wrong candidates,
    /// however consistent its counters are with the members.
    #[test]
    fn check_invariants_catches_candidate_columns_not_generated_from_the_signature() {
        let mut index = clustered_index();
        let slot = populated_child(&index);
        let parent = index.cluster(slot).parent.unwrap() as usize;
        let signature = index.cluster(slot).signature.clone();
        let segment = index.cluster(slot).segment;
        let breaks = [
            ("the parent's generation", index.candidates[parent].clone()),
            (
                "another division factor",
                CandidateSet::generate(&signature, 2),
            ),
            ("the empty set", CandidateSet::default()),
        ];
        for (what, mut set) in breaks {
            set.recount_members(&index.store.columns(segment));
            let kept = std::mem::replace(&mut index.candidates[slot as usize], set);
            let err = index.check_invariants().unwrap_err();
            assert!(
                err.contains(&format!("cluster {slot}: candidate columns differ")),
                "{what}: {err}"
            );
            index.candidates[slot as usize] = kept;
        }
        index.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_catches_a_member_outside_its_signature() {
        let mut index = clustered_index();
        let slot = populated_child(&index);
        let cluster = index.cluster(slot);
        let segment = cluster.segment;
        let outside = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        assert!(!cluster.signature.accepts_flat(&outside), "test premise");
        // Every position and count agrees: only the signature is violated.
        index.store.push(segment, 9999, &outside);
        index.candidates[slot as usize].record_member(&outside);
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
            err.contains("objects in clusters but") && err.contains("in the id table"),
            "{err}"
        );
    }

    /// A cluster that is its own parent passes every link check — it
    /// points back at itself and lists itself — yet no query reaches its
    /// members.
    #[test]
    fn check_invariants_catches_a_cluster_cut_off_from_the_root() {
        let mut index = clustered_index();
        let slot = populated_child(&index);
        let parent = index.cluster(slot).parent.unwrap();
        index.cluster_mut(parent).children.remove(slot);
        let cluster = index.cluster_mut(slot);
        cluster.parent = Some(slot);
        cluster
            .children
            .push(slot, &cluster.signature, &cluster.signature);
        let err = index.check_invariants().unwrap_err();
        assert!(err.contains("reachable from the root"), "{err}");
    }

    /// A row that tests fewer dimensions than its child differs in would
    /// admit objects and queries the child's signature rejects.
    #[test]
    fn check_invariants_catches_a_stale_child_row() {
        let mut index = clustered_index();
        let slot = populated_child(&index);
        let parent = index.cluster(slot).parent.unwrap();
        let signature = index.cluster(slot).signature.clone();
        let table = &mut index.cluster_mut(parent).children;
        table.remove(slot);
        table.push(slot, &signature, &signature);
        let err = index.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!(
                "the row of child {slot} in cluster {parent} is stale"
            )),
            "{err}"
        );
    }

    /// A child missing from its parent's table is a child neither
    /// descent reaches.
    #[test]
    fn check_invariants_catches_a_missing_child_row() {
        let mut index = clustered_index();
        let slot = populated_child(&index);
        let parent = index.cluster(slot).parent.unwrap();
        index.cluster_mut(parent).children.remove(slot);
        let err = index.check_invariants().unwrap_err();
        assert!(err.contains("reachable from the root"), "{err}");
    }

    #[test]
    fn cluster_slot_is_exact_up_to_u32_max() {
        assert_eq!(cluster_slot(0), 0);
        assert_eq!(cluster_slot(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "an index holds at most u32::MAX cluster slots")]
    fn cluster_slot_panics_just_above_u32_max() {
        cluster_slot(u32::MAX as usize + 1);
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
        assert_eq!(loaded.candidates.len(), index.candidates.len());
        for (slot, (live, back)) in index.candidates.iter().zip(&loaded.candidates).enumerate() {
            assert_eq!(back.n_col(), live.n_col(), "cluster {slot} member counts");
            assert_eq!(back.n_hi(), live.n_hi(), "cluster {slot} bound");
            loose += usize::from(live.n_col().iter().max() < Some(&live.n_hi()));
        }
        assert!(loose > 0, "test premise: a removal left some bound loose");
        loaded.check_invariants().unwrap();
    }
}
