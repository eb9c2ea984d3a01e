//! An executable model of the paper, outside the index: the oracle every
//! equivalence suite compares [`AdaptiveClusterIndex`] against.
//!
//! It shares nothing with the index but the paper's vocabulary:
//! [`Signature`] (membership and exploration tests, the feasibility and
//! specialization of a subinterval cell) and the §5 benefit functions
//! ([`materialization_benefit`], [`merging_benefit`]). Everything else
//! is written out naively from its definition:
//!
//! - a cluster's candidates are §4.2's enumeration ([`candidate_cells`]):
//!   per dimension, each feasible start × end cell `(i, j)`, specialized
//!   into its own signature;
//! - a cluster's members are a plain `Vec` of `(id, coordinates)`;
//!   cluster slots come from a LIFO free list;
//! - a query bumps each candidate whose signature
//!   [`Signature::matches_query`]; a candidate's member count `n` is
//!   recounted with [`Signature::accepts_flat`] whenever a pass prices
//!   it — no cached count, no bound, no screen;
//! - every epoch close decays every counter eagerly,
//!   `q_eff ← γ·q_eff + q` — no stamps, no catch-up;
//! - answers come from a [`SpatialQuery::matches_flat`] loop over each
//!   explored cluster's members;
//! - the pass is Fig. 1–3: for every cluster live at its start, the
//!   merge test, else the greedy split loop, with the move and
//!   confidence margins restated below.
//!
//! [`check`] compares an index with the model: snapshots, totals, the
//! verification fraction, and from the index's checkpoint every clock,
//! every cluster's members and counters, every candidate's `q`/`q_eff`
//! bits (caught up with [`ckpt::caught_up`]), the free list and the
//! merge memory.

use std::collections::HashMap;

use acx_core::cost::{materialization_benefit, merging_benefit};
use acx_core::{
    AdaptiveClusterIndex, ClusterSnapshot, IndexConfig, IndexError, ReorgReport, Signature,
    STATS_DECAY,
};
use acx_geom::{object_size_bytes, HyperRect, ObjectId, Scalar, SpatialQuery, OBJECT_ID_BYTES};
use acx_storage::{AccessStats, CostModel};

use crate::ckpt::{self, Checkpoint};

/// Passes a merged-away signature is remembered for: re-materializing
/// it within this many passes completes one thrash cycle.
const THRASH_WINDOW: u64 = 8;

/// Two access probabilities within this relative distance tie when an
/// insert picks its cluster (§3.5: ties go to the most specific one).
const TIE_RELATIVE_EPS: f64 = 1e-9;

/// The candidates of a cluster of `signature` at division factor `f`
/// (§4.2), in the order the index numbers them: per dimension `d`, every
/// start × end subinterval cell `(i, j)` the signature can be
/// specialized to ([`Signature::combination_feasible`]), `i` major.
pub fn candidate_cells(signature: &Signature, f: u8) -> Vec<(usize, u8, u8)> {
    (0..signature.dims())
        .flat_map(|d| (0..f).flat_map(move |i| (0..f).map(move |j| (d, i, j))))
        .filter(|&(d, i, j)| signature.combination_feasible(d, f, i, j))
        .collect()
}

/// A virtual candidate subcluster: its signature and query counters.
#[derive(Debug, Clone)]
struct Candidate {
    signature: Signature,
    q: u32,
    q_eff: f64,
}

#[derive(Debug, Clone)]
struct Cluster {
    signature: Signature,
    parent: Option<u32>,
    children: Vec<u32>,
    members: Vec<(u32, Vec<Scalar>)>,
    candidates: Vec<Candidate>,
    q_count: u64,
    epoch_start: u64,
    q_eff: f64,
    weight: f64,
}

impl Cluster {
    /// A cluster of `signature` with fresh candidates and no members.
    fn new(signature: Signature, parent: Option<u32>, f: u8) -> Self {
        let candidates = candidate_cells(&signature, f)
            .into_iter()
            .map(|(d, i, j)| Candidate {
                signature: signature.specialize(d, f, i, j),
                q: 0,
                q_eff: 0.0,
            })
            .collect();
        Cluster {
            signature,
            parent,
            children: Vec::new(),
            members: Vec::new(),
            candidates,
            q_count: 0,
            epoch_start: 0,
            q_eff: 0.0,
            weight: 0.0,
        }
    }

    /// How many members candidate `ci`'s signature accepts.
    fn n(&self, ci: usize) -> usize {
        let signature = &self.candidates[ci].signature;
        self.members
            .iter()
            .filter(|(_, flat)| signature.accepts_flat(flat))
            .count()
    }
}

/// What one query found and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Matched ids, ascending.
    pub matches: Vec<ObjectId>,
    pub stats: AccessStats,
    pub priced_ms: f64,
    /// Slots of the clusters the query explored.
    pub explored: Vec<u32>,
}

/// The cost terms of one pass, from their definitions.
struct Costs {
    a: f64,
    b: f64,
    /// `C`: verification scaled by the measured early-exit fraction,
    /// plus the transfer.
    c: f64,
    /// Moving one object: `2·C + M`.
    moved: f64,
    horizon: f64,
    z: f64,
}

impl Costs {
    /// Hysteresis: moving `n` objects, amortized over the horizon.
    fn move_margin(&self, n: usize) -> f64 {
        n as f64 * self.moved / self.horizon
    }

    /// `z` standard errors of a benefit whose noise is the sampled
    /// probability `p` over `n_eff` observations, with sensitivity
    /// `n·C + B`; the variance is floored at `1/n_eff²`.
    fn confidence_margin(&self, p: f64, n_eff: f64, n: usize) -> f64 {
        if self.z == 0.0 || n_eff <= 0.0 {
            return 0.0;
        }
        let variance = (p * (1.0 - p)).max(1.0 / n_eff) / n_eff;
        self.z * variance.sqrt() * (n as f64 * self.c + self.b)
    }
}

/// The model index. See the module documentation.
#[derive(Debug, Clone)]
pub struct Model {
    config: IndexConfig,
    cost: CostModel,
    object_bytes: u64,
    clusters: Vec<Option<Cluster>>,
    free: Vec<u32>,
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
    /// Merged-away signature bytes → the pass count when merged.
    recent_merges: HashMap<Vec<u8>, u64>,
}

/// The root's slot: the root never merges, so it keeps slot 0.
const ROOT: u32 = 0;

impl Model {
    /// An empty model: one root cluster accepting the whole domain.
    pub fn new(config: IndexConfig) -> Self {
        let root = Cluster::new(Signature::root(config.dims), None, config.division_factor);
        Model {
            cost: config.cost_model(),
            object_bytes: object_size_bytes(config.dims) as u64,
            config,
            clusters: vec![Some(root)],
            free: Vec::new(),
            total_queries: 0,
            queries_since_reorg: 0,
            structure_epoch: 0,
            reorganizations: 0,
            stats_epoch: 0,
            total_merges: 0,
            total_splits: 0,
            total_thrash: 0,
            epoch_verified_bytes: 0,
            epoch_full_bytes: 0,
            hist_verified_bytes: 0.0,
            hist_full_bytes: 0.0,
            recent_merges: HashMap::new(),
        }
    }

    fn cluster(&self, slot: u32) -> &Cluster {
        self.clusters[slot as usize].as_ref().expect("live slot")
    }

    fn cluster_mut(&mut self, slot: u32) -> &mut Cluster {
        self.clusters[slot as usize].as_mut().expect("live slot")
    }

    /// Materialized clusters, the root included.
    pub fn cluster_count(&self) -> usize {
        self.clusters.iter().flatten().count()
    }

    /// Indexed objects.
    fn len(&self) -> usize {
        self.clusters
            .iter()
            .flatten()
            .map(|c| c.members.len())
            .sum()
    }

    /// Passes run.
    pub fn reorganizations(&self) -> u64 {
        self.reorganizations
    }

    /// Merges over all passes.
    pub fn total_merges(&self) -> u64 {
        self.total_merges
    }

    /// Materializations over all passes.
    pub fn total_splits(&self) -> u64 {
        self.total_splits
    }

    /// Every `(id, rectangle)`, by ascending id.
    pub fn objects(&self) -> Vec<(u32, HyperRect)> {
        let mut out: Vec<(u32, HyperRect)> = (self.clusters.iter().flatten())
            .flat_map(|c| &c.members)
            .map(|(id, flat)| (*id, HyperRect::from_flat(flat).unwrap()))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    fn position(&self, id: u32) -> Option<(u32, usize)> {
        self.clusters.iter().enumerate().find_map(|(slot, c)| {
            let at = c.as_ref()?.members.iter().position(|(m, _)| *m == id)?;
            Some((slot as u32, at))
        })
    }

    /// Whether `id` is indexed.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.position(id.raw()).is_some()
    }

    /// A cluster's access probability: decayed history plus the open
    /// epoch, over the decayed weight plus the open epoch's length.
    fn access_probability(&self, c: &Cluster) -> f64 {
        let denom = c.weight + self.total_queries.saturating_sub(c.epoch_start) as f64;
        if denom <= 0.0 {
            0.0
        } else {
            (c.q_eff + c.q_count as f64) / denom
        }
    }

    /// Verified bytes over full-object bytes, history and open epoch
    /// together; `1` before any data.
    fn verify_fraction(&self) -> f64 {
        let denom = self.hist_full_bytes + self.epoch_full_bytes as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        ((self.hist_verified_bytes + self.epoch_verified_bytes as f64) / denom).clamp(0.0, 1.0)
    }

    fn check_dims(&self, actual: usize) -> Result<(), IndexError> {
        let expected = self.config.dims;
        if actual == expected {
            Ok(())
        } else {
            Err(IndexError::DimensionMismatch { expected, actual })
        }
    }

    /// §3.5, Fig. 4: among the clusters whose signature accepts the
    /// object, the one least likely to be explored; near-ties go to the
    /// deepest, and otherwise to the first met depth-first.
    pub fn insert(&mut self, id: ObjectId, rect: HyperRect) -> Result<(), IndexError> {
        self.check_dims(rect.dims())?;
        if self.contains(id) {
            return Err(IndexError::DuplicateObject(id.raw()));
        }
        let flat = rect.to_flat();
        if !self.cluster(ROOT).signature.accepts_flat(&flat) {
            return Err(IndexError::OutOfDomain(id.raw()));
        }
        let mut best: Option<(u32, f64, usize)> = None;
        let mut stack = vec![(ROOT, 0usize)];
        while let Some((slot, depth)) = stack.pop() {
            let cluster = self.cluster(slot);
            if !cluster.signature.accepts_flat(&flat) {
                continue;
            }
            let p = self.access_probability(cluster);
            let better = best.is_none_or(|(_, bp, bd)| {
                if (p - bp).abs() <= TIE_RELATIVE_EPS * p.abs().max(bp.abs()) {
                    depth > bd
                } else {
                    p < bp
                }
            });
            if better {
                best = Some((slot, p, depth));
            }
            stack.extend(cluster.children.iter().map(|&c| (c, depth + 1)));
        }
        let (slot, _, _) = best.expect("the root accepts the object");
        self.cluster_mut(slot).members.push((id.raw(), flat));
        Ok(())
    }

    /// Removes an object, returning its rectangle.
    pub fn remove(&mut self, id: ObjectId) -> Result<HyperRect, IndexError> {
        let (slot, at) = self
            .position(id.raw())
            .ok_or(IndexError::UnknownObject(id.raw()))?;
        let (_, flat) = self.cluster_mut(slot).members.remove(at);
        Ok(HyperRect::from_flat(&flat).unwrap())
    }

    /// Replaces an object's rectangle: a removal and an insert.
    pub fn update(&mut self, id: ObjectId, rect: HyperRect) -> Result<HyperRect, IndexError> {
        self.check_dims(rect.dims())?;
        if !self.contains(id) {
            return Err(IndexError::UnknownObject(id.raw()));
        }
        if !self.cluster(ROOT).signature.accepts_flat(&rect.to_flat()) {
            return Err(IndexError::OutOfDomain(id.raw()));
        }
        let old = self.remove(id)?;
        self.insert(id, rect)?;
        Ok(old)
    }

    /// §3.6, Fig. 5, read-only: explores depth-first every cluster whose
    /// signature matches and verifies each of its members.
    pub fn query(&self, query: &SpatialQuery) -> Answer {
        let mut stats = AccessStats::new();
        let mut matches = Vec::new();
        let mut explored = Vec::new();
        let mut stack = vec![ROOT];
        while let Some(slot) = stack.pop() {
            stats.signature_checks += 1;
            let cluster = self.cluster(slot);
            if !cluster.signature.matches_query(query) {
                continue;
            }
            explored.push(slot);
            let n = cluster.members.len() as u64;
            stats.clusters_explored += 1;
            stats.seeks += 1;
            stats.transfer_bytes += n * self.object_bytes;
            stats.objects_verified += n;
            for (id, flat) in &cluster.members {
                let outcome = query.matches_flat(flat);
                stats.verified_bytes += OBJECT_ID_BYTES as u64 + 8 * outcome.dims_checked as u64;
                if outcome.matched {
                    matches.push(ObjectId(*id));
                }
            }
            stack.extend_from_slice(&cluster.children);
        }
        matches.sort_unstable();
        Answer {
            matches,
            priced_ms: self.cost.price(&stats),
            stats,
            explored,
        }
    }

    /// [`Model::query`], then the statistics: each explored cluster and
    /// each of its candidates whose signature matches counts the query;
    /// then the totals, and a pass when the period has elapsed.
    pub fn execute(&mut self, query: &SpatialQuery) -> Answer {
        let answer = self.query(query);
        for &slot in &answer.explored {
            let cluster = self.cluster_mut(slot);
            cluster.q_count += 1;
            for cand in &mut cluster.candidates {
                if cand.signature.matches_query(query) {
                    cand.q = cand.q.saturating_add(1);
                }
            }
        }
        self.close_queries(std::slice::from_ref(&answer));
        answer
    }

    /// Counts queries into the totals only: what applying a delta
    /// recorded before a pass that changed the clustering does.
    pub fn count_stale(&mut self, answers: &[Answer]) {
        self.close_queries(answers);
    }

    fn close_queries(&mut self, answers: &[Answer]) {
        for a in answers {
            self.total_queries += 1;
            self.queries_since_reorg += 1;
            self.epoch_verified_bytes += a.stats.verified_bytes;
            self.epoch_full_bytes += a.stats.objects_verified * self.object_bytes;
        }
        let period = self.config.reorg_period;
        if period > 0 && self.queries_since_reorg >= period {
            self.reorganize();
        }
    }

    fn costs(&self) -> Costs {
        let c = self.cost.c_verify() * self.verify_fraction() + self.cost.c_transfer();
        Costs {
            a: self.cost.a(),
            b: self.cost.b(),
            c,
            moved: 2.0 * c + self.cost.m(),
            horizon: self.config.reorg_cost_horizon,
            z: self.config.confidence_z,
        }
    }

    /// One pass (Fig. 1): every cluster live at the pass's start, in
    /// slot order, past the epoch gate, merges into its parent when
    /// that pays (Fig. 2), or else materializes its best candidate for
    /// as long as one pays (Fig. 3). Then the epoch closes.
    pub fn reorganize(&mut self) -> ReorgReport {
        let mut report = ReorgReport {
            clusters_before: self.cluster_count(),
            ..ReorgReport::default()
        };
        let costs = self.costs();
        let live: Vec<u32> = (0..self.clusters.len() as u32)
            .filter(|&s| self.clusters[s as usize].is_some())
            .collect();
        for slot in live {
            let Some(cluster) = self.clusters[slot as usize].as_ref() else {
                continue;
            };
            let denom =
                cluster.weight + self.total_queries.saturating_sub(cluster.epoch_start) as f64;
            if denom < self.config.min_epoch_queries as f64 {
                continue;
            }
            let p_c = self.access_probability(cluster);
            if let Some(parent) = cluster.parent {
                let p_parent = self.access_probability(self.cluster(parent));
                let n = cluster.members.len();
                let benefit = merging_benefit(costs.a, costs.b, costs.c, p_c, p_parent, n);
                if benefit > costs.move_margin(n) + costs.confidence_margin(p_c, denom, n) {
                    self.merge(slot);
                    report.merges += 1;
                    continue;
                }
            }
            while let Some(ci) = self.best_candidate(slot, &costs, p_c, denom) {
                let _ = self.materialize(slot, ci);
                report.splits += 1;
            }
        }
        report.clusters_after = self.cluster_count();
        self.total_merges += report.merges;
        self.total_splits += report.splits;
        self.close_epoch(report.changed());
        report
    }

    /// Fig. 3's choice: the first candidate whose benefit exceeds its
    /// margins and every earlier qualifier's benefit.
    fn best_candidate(&self, slot: u32, costs: &Costs, p_c: f64, denom: f64) -> Option<usize> {
        let cluster = self.cluster(slot);
        let mut best: Option<(usize, f64)> = None;
        for (ci, cand) in cluster.candidates.iter().enumerate() {
            let n = cluster.n(ci);
            if n == 0 {
                continue;
            }
            let p_s = if denom <= 0.0 {
                0.0
            } else {
                (cand.q_eff + cand.q as f64) / denom
            };
            let benefit = materialization_benefit(costs.a, costs.b, costs.c, p_c, p_s, n);
            let threshold = costs.move_margin(n) + costs.confidence_margin(p_s, denom, n);
            if benefit > threshold && best.is_none_or(|(_, b)| benefit > b) {
                best = Some((ci, benefit));
            }
        }
        best.map(|(ci, _)| ci)
    }

    /// Fig. 2: the cluster's members and children go to its parent.
    fn merge(&mut self, slot: u32) {
        let cluster = self.clusters[slot as usize].take().expect("live slot");
        self.free.push(slot);
        self.recent_merges
            .insert(cluster.signature.to_bytes(), self.reorganizations);
        let parent_slot = cluster.parent.expect("the root never merges");
        let parent = self.cluster_mut(parent_slot);
        parent.children.retain(|&c| c != slot);
        parent.members.extend(cluster.members);
        for child in cluster.children {
            self.cluster_mut(child).parent = Some(parent_slot);
            self.cluster_mut(parent_slot).children.push(child);
        }
    }

    /// What replaying a logged materialization does: Fig. 3's step
    /// outside a pass, counted as a split, with no epoch close. Returns
    /// the child's slot.
    pub fn replay_materialize(&mut self, slot: u32, ci: usize) -> u32 {
        self.total_splits += 1;
        self.materialize(slot, ci)
    }

    /// What replaying a logged merge does: Fig. 2's step outside a pass,
    /// counted as a merge, with no epoch close.
    pub fn replay_merge(&mut self, slot: u32) {
        self.total_merges += 1;
        self.merge(slot);
    }

    /// Candidate `ci` of `slot` becomes a child cluster holding the
    /// members it accepts and inheriting its counters and its parent's
    /// epoch. Returns the child's slot.
    fn materialize(&mut self, slot: u32, ci: usize) -> u32 {
        let f = self.config.division_factor;
        let parent = self.cluster_mut(slot);
        let cand = &parent.candidates[ci];
        let mut child = Cluster::new(cand.signature.clone(), Some(slot), f);
        child.q_count = cand.q as u64;
        child.q_eff = cand.q_eff;
        child.epoch_start = parent.epoch_start;
        child.weight = parent.weight;
        let members = std::mem::take(&mut parent.members);
        (child.members, parent.members) = members
            .into_iter()
            .partition(|(_, flat)| child.signature.accepts_flat(flat));
        let key = child.signature.to_bytes();
        if let Some(&merged_at) = self.recent_merges.get(&key) {
            if self.reorganizations.saturating_sub(merged_at) < THRASH_WINDOW {
                self.total_thrash += 1;
            }
        }
        let new_slot = match self.free.pop() {
            Some(free) => {
                self.clusters[free as usize] = Some(child);
                free
            }
            None => {
                self.clusters.push(Some(child));
                (self.clusters.len() - 1) as u32
            }
        };
        self.cluster_mut(slot).children.push(new_slot);
        new_slot
    }

    /// Closes the statistics epoch: every counter folds into its
    /// history with weight `γ`, now.
    fn close_epoch(&mut self, structure_changed: bool) {
        let gamma = STATS_DECAY;
        let now = self.total_queries;
        self.hist_verified_bytes =
            gamma * self.hist_verified_bytes + self.epoch_verified_bytes as f64;
        self.hist_full_bytes = gamma * self.hist_full_bytes + self.epoch_full_bytes as f64;
        self.epoch_verified_bytes = 0;
        self.epoch_full_bytes = 0;
        self.stats_epoch += 1;
        for cluster in self.clusters.iter_mut().flatten() {
            let epoch_len = now.saturating_sub(cluster.epoch_start) as f64;
            cluster.q_eff = gamma * cluster.q_eff + cluster.q_count as f64;
            cluster.weight = gamma * cluster.weight + epoch_len;
            cluster.q_count = 0;
            cluster.epoch_start = now;
            for cand in &mut cluster.candidates {
                cand.q_eff = gamma * cand.q_eff + cand.q as f64;
                cand.q = 0;
            }
        }
        self.reorganizations += 1;
        let passes = self.reorganizations;
        self.recent_merges
            .retain(|_, at| passes - *at < THRASH_WINDOW);
        self.queries_since_reorg = 0;
        if structure_changed {
            self.structure_epoch += 1;
        }
    }

    /// Every cluster, depth-first from the root.
    pub fn snapshots(&self) -> Vec<ClusterSnapshot> {
        let mut out = Vec::new();
        let mut stack = vec![(ROOT, 0usize)];
        while let Some((slot, depth)) = stack.pop() {
            let cluster = self.cluster(slot);
            out.push(ClusterSnapshot {
                id: slot,
                parent: cluster.parent,
                objects: cluster.members.len(),
                access_probability: self.access_probability(cluster),
                depth,
                signature: cluster.signature.to_string(),
            });
            stack.extend(cluster.children.iter().map(|&c| (c, depth + 1)));
        }
        out
    }

    /// The clocks a checkpoint's clocks frame carries after its
    /// checkpoint id, in its order.
    fn clocks(&self) -> [u64; 12] {
        [
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
        ]
    }
}

/// `Err` describing the first difference between `index` and `model`:
/// snapshots (depth-first), totals, the verification fraction's bits,
/// and what the index's checkpoint holds — every clock but the
/// checkpoint id, each cluster's parent, members (by id) and counters,
/// each candidate's `q` and `q_eff` bits caught up to the open
/// statistics epoch, the free list and the merge memory.
pub fn check(index: &AdaptiveClusterIndex, model: &Model) -> Result<(), String> {
    let same = |what: &str, ok: bool| if ok { Ok(()) } else { Err(what.to_string()) };
    let (snapshots, expected) = (index.snapshots(), model.snapshots());
    if snapshots != expected {
        return Err(format!(
            "snapshots differ:\n index {snapshots:?}\n model {expected:?}"
        ));
    }
    let totals = |i: &AdaptiveClusterIndex| {
        [
            i.total_queries(),
            i.reorganizations(),
            i.total_merges(),
            i.total_splits(),
            i.total_thrash(),
        ]
    };
    let model_totals = [
        model.total_queries,
        model.reorganizations,
        model.total_merges,
        model.total_splits,
        model.total_thrash,
    ];
    if totals(index) != model_totals {
        return Err(format!(
            "(queries, passes, merges, splits, thrash): index {:?}, model {model_totals:?}",
            totals(index)
        ));
    }
    same(
        "verify fraction",
        index.verify_fraction().to_bits() == model.verify_fraction().to_bits(),
    )?;
    same("object count", index.len() == model.len())?;

    let checkpoint = Checkpoint::of(index);
    let clocks: Vec<u64> = (1..13).map(|i| checkpoint.clock(i)).collect();
    if clocks != model.clocks() {
        return Err(format!(
            "clocks: index {clocks:?}, model {:?}",
            model.clocks()
        ));
    }
    let epoch = checkpoint.clock(ckpt::STATS_EPOCH);
    let frames = checkpoint.clusters();
    same("cluster count", frames.len() == model.cluster_count())?;
    for frame in &frames {
        let slot = frame.slot;
        let Some(Some(cluster)) = model.clusters.get(slot as usize) else {
            return Err(format!(
                "the index has a cluster in slot {slot}, the model none"
            ));
        };
        let parent = cluster.parent.unwrap_or(u32::MAX);
        same(&format!("slot {slot}: parent"), frame.parent == parent)?;
        let mut members = checkpoint.members(frame);
        members.sort_by_key(|m| m.0);
        let mut expected = cluster.members.clone();
        expected.sort_by_key(|m| m.0);
        same(&format!("slot {slot}: members"), members == expected)?;
        let counters = ckpt::caught_up(&checkpoint.frames[frame.frame], frame, epoch);
        let (q_count, epoch_start, q_eff, weight) = ckpt::cluster_counters(&counters);
        let got = (q_count, epoch_start, q_eff.to_bits(), weight.to_bits());
        let mine = (
            cluster.q_count,
            cluster.epoch_start,
            cluster.q_eff.to_bits(),
            cluster.weight.to_bits(),
        );
        if got != mine {
            return Err(format!(
                "slot {slot}: (q_count, epoch_start, q_eff, weight bits) index {got:?}, model {mine:?}"
            ));
        }
        let cands = ckpt::candidate_counters(&counters, frame);
        same(
            &format!("slot {slot}: candidate count"),
            cands.len() == cluster.candidates.len(),
        )?;
        for (ci, ((q, q_eff), cand)) in cands.iter().zip(&cluster.candidates).enumerate() {
            if (*q, q_eff.to_bits()) != (cand.q, cand.q_eff.to_bits()) {
                return Err(format!(
                    "slot {slot} candidate {ci}: (q, q_eff) index {:?}, model {:?}",
                    (q, q_eff),
                    (cand.q, cand.q_eff)
                ));
            }
        }
    }
    same("free slots", checkpoint.free_slots() == model.free)?;
    let mut merges: Vec<(Vec<u8>, u64)> = model.recent_merges.clone().into_iter().collect();
    merges.sort();
    same("recent merges", checkpoint.recent_merges() == merges)
}

/// Panics with `context` and the first difference [`check`] finds.
#[track_caller]
pub fn assert_same(index: &AdaptiveClusterIndex, model: &Model, context: &str) {
    if let Err(why) = check(index, model) {
        panic!("{context}: the index and the model differ: {why}");
    }
}

/// Panics unless the index's answer to a query is the model's: the
/// matches as a set, the access counters and the priced cost.
#[track_caller]
pub fn assert_same_answer(
    matches: &[ObjectId],
    metrics: &acx_core::QueryMetrics,
    answer: &Answer,
    context: &str,
) {
    assert_eq!(
        crate::sorted(matches.to_vec()),
        answer.matches,
        "{context}: matches"
    );
    assert_eq!(metrics.stats, answer.stats, "{context}: AccessStats");
    assert_eq!(
        metrics.priced_ms.to_bits(),
        answer.priced_ms.to_bits(),
        "{context}: priced_ms"
    );
}
