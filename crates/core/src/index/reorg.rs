//! The reorganization pass (paper Fig. 1–3): asks the policy about every
//! live cluster and applies its verdicts — moving members, allocating
//! slots, logging, firing the fault hooks — then closes the epoch.

use std::time::Instant;

use acx_geom::tier::Tier;
use acx_storage::WalRecord;

use super::policy::{self, PassCosts};
use super::{assign_segment, cluster_slot, AdaptiveClusterIndex, ChildTable, Cluster};
use crate::candidates::CandidateSet;
use crate::metrics::{ReorgProfile, ReorgReport};
use crate::{IndexConfig, STATS_DECAY};

/// How many reorganization passes a merged-away signature is remembered
/// for thrash accounting: a materialization re-creating a signature
/// merged within this window counts as one completed split→merge→split
/// cycle ([`ReorgProfile::thrash_cycles`]).
const THRASH_WINDOW: u64 = 8;

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

/// Reusable buffers of the reorganization pass. Like
/// [`super::QueryScratch`], they grow to the workload's high-water mark,
/// so a warmed-up pass allocates nothing.
#[derive(Debug, Default)]
pub(super) struct ReorgScratch {
    /// The pass's slot snapshot (live clusters at pass start).
    snapshot: Vec<u32>,
    /// Candidate materialization benefits (one per candidate).
    benefits: Vec<f64>,
    /// The debug tripwire's copy of a screened-out cluster's query
    /// counters, put back once its selection has run.
    #[cfg(debug_assertions)]
    saved_q: Vec<u32>,
    #[cfg(debug_assertions)]
    saved_q_eff: Vec<f64>,
}

impl ReorgScratch {
    /// Pre-sizes the benefit column to the widest candidate set
    /// (`dims · f(f+1)/2`), so the first scan that prices its column long
    /// after warm-up does not pay the allocation; the tripwire's copies
    /// to the most a specialized cluster can own (`dims · f²`).
    pub(super) fn with_candidate_capacity(config: &IndexConfig) -> Self {
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

impl AdaptiveClusterIndex {
    /// Runs one cluster reorganization pass (paper Fig. 1): for every
    /// materialized cluster, merge it into its parent when the merging
    /// benefit is positive, otherwise greedily materialize its profitable
    /// candidate subclusters. Statistics epochs restart afterwards.
    pub fn reorganize(&mut self) -> ReorgReport {
        let pass_started = Instant::now();
        let mut report = ReorgReport {
            clusters_before: self.cluster_count(),
            ..Default::default()
        };
        let mut profile = ReorgProfile::default();
        let mut snapshot = std::mem::take(&mut self.reorg_scratch.snapshot);
        snapshot.clear();
        snapshot.extend(
            (0..cluster_slot(self.clusters.len())).filter(|&s| self.clusters[s as usize].is_some()),
        );
        self.pass(&snapshot, &mut report, &mut profile);
        self.reorg_scratch.snapshot = snapshot;
        report.clusters_after = self.cluster_count();
        self.reorg_fault(ReorgFaultPoint::BeforeEpochClose);
        if self.wal.is_some() {
            self.wal_log_structural(WalRecord::EpochClose);
        }
        self.close_epoch(report.changed());
        profile.arena_live_bytes = self
            .candidates
            .iter()
            .map(CandidateSet::bytes)
            .sum::<usize>() as u64;
        self.clocks.total_merges += report.merges;
        self.clocks.total_splits += report.splits;
        self.last_profile = profile;
        self.reorg_wall_ns += pass_started.elapsed().as_nanos() as u64;
        report
    }

    /// The epoch-close tail shared by a live pass and WAL replay: fold
    /// the statistics epoch, advance the pass clock, prune merge memory
    /// older than the thrash window, and — when the pass changed the
    /// clustering — open a new structure epoch.
    pub(super) fn close_epoch(&mut self, structure_changed: bool) {
        self.decay_statistics();
        self.clocks.reorganizations += 1;
        let passes = self.clocks.reorganizations;
        self.recent_merges
            .retain(|_, at| passes - *at < THRASH_WINDOW);
        self.clocks.queries_since_reorg = 0;
        if structure_changed {
            self.clocks.structure_epoch += 1;
        }
    }

    /// Work profile of the most recent reorganization pass — how many
    /// clusters were evaluated, candidate-scanned, or screened out.
    /// Diagnostics only: the profile counts the work a decision took,
    /// not the decision ([`ReorgReport`]).
    pub fn last_reorg_profile(&self) -> ReorgProfile {
        self.last_profile
    }

    /// Cumulative wall-clock nanoseconds this index has spent inside
    /// [`AdaptiveClusterIndex::reorganize`] since construction.
    ///
    /// Every pass runs on the mutation path — `execute` and `apply_stats`
    /// trigger it inline when the period elapses — so this is exactly
    /// the serving stall reorganization has caused; the sharded serving
    /// tier confines it to one shard. Diagnostics only (wall time, not
    /// part of any decision surface); not persisted by checkpoints.
    pub fn reorg_wall_ns(&self) -> u64 {
        self.reorg_wall_ns
    }

    /// The pass loop (paper Fig. 1). A cluster that does not merge first
    /// meets the O(1) screen, which touches no candidate column and so
    /// leaves the cluster's decay lazy; only a cluster it cannot rule
    /// out is scanned.
    fn pass(&mut self, snapshot: &[u32], report: &mut ReorgReport, profile: &mut ReorgProfile) {
        let costs = PassCosts::new(&self.model, &self.config, self.verify_fraction());
        for &slot in snapshot {
            let Some(cluster) = self.clusters[slot as usize].as_ref() else {
                continue; // removed by an earlier merge in this pass
            };
            let epoch_len = self
                .clocks
                .total_queries
                .saturating_sub(cluster.epoch_start);
            let denom = cluster.weight + epoch_len as f64;
            if denom < self.config.min_epoch_queries as f64 {
                continue;
            }
            profile.evaluated += 1;
            // No scalar statistic moves while a pass runs, so the merge
            // test, the screen and every selection share one `p_c`.
            let p_c = self.access_probability(cluster);
            if let Some(parent) = cluster.parent {
                let p_parent = self.access_probability(self.cluster(parent));
                let n_c = self.store.segment_len(cluster.segment);
                if policy::merge_profitable(&costs, p_c, p_parent, n_c, denom) {
                    self.merge_cluster(slot, profile);
                    report.merges += 1;
                    continue;
                }
            }
            let n_hi = self.candidates[slot as usize].n_hi();
            if policy::split_screen_rules_out(&costs, p_c, denom, n_hi) {
                #[cfg(debug_assertions)]
                self.screen_tripwire(slot, &costs, p_c, denom);
                profile.screened_out += 1;
                continue;
            }
            self.materialize_candidates(slot);
            let splits = self.split(slot, &costs, p_c, denom, profile);
            profile.candidate_scans += 1 + splits;
            report.splits += splits;
        }
    }

    /// Debug builds run the selection the screen skipped and insist it
    /// picks nothing. The counters it catches up are put back, so a debug
    /// build leaves the state (and checkpoint) an optimized one does; the
    /// notes it expands first add what they would have later.
    #[cfg(debug_assertions)]
    fn screen_tripwire(&mut self, slot: u32, costs: &PassCosts, p_c: f64, denom: f64) {
        let mut q = std::mem::take(&mut self.reorg_scratch.saved_q);
        let mut q_eff = std::mem::take(&mut self.reorg_scratch.saved_q_eff);
        self.candidates[slot as usize].expand();
        let saved = &self.candidates[slot as usize];
        q.clear();
        q.extend_from_slice(saved.q_col());
        q_eff.clear();
        q_eff.extend_from_slice(saved.q_eff_col());
        let (n_hi, stamp) = (saved.n_hi(), saved.stamp());
        self.materialize_candidates(slot);
        let mut benefits = std::mem::take(&mut self.reorg_scratch.benefits);
        let cands = &self.candidates[slot as usize];
        let choice = policy::select_split_columnar(costs, p_c, denom, cands, &mut benefits);
        assert_eq!(
            choice.best, None,
            "screen wrongly skipped a split on slot {slot}: p_c={p_c} n_hi={n_hi} denom={denom}"
        );
        self.candidates[slot as usize].restore_counters(&q, &q_eff, n_hi, stamp);
        self.reorg_scratch.benefits = benefits;
        self.reorg_scratch.saved_q = q;
        self.reorg_scratch.saved_q_eff = q_eff;
    }

    /// Paper Fig. 3's greedy loop: select, re-tighten the cached
    /// member-count bound, materialize, repeat. The counters are caught
    /// up. Returns the materializations.
    fn split(
        &mut self,
        slot: u32,
        costs: &PassCosts,
        p_c: f64,
        denom: f64,
        profile: &mut ReorgProfile,
    ) -> u64 {
        let mut splits = 0;
        let mut benefits = std::mem::take(&mut self.reorg_scratch.benefits);
        loop {
            let cands = &mut self.candidates[slot as usize];
            let choice = policy::select_split_columnar(costs, p_c, denom, cands, &mut benefits);
            cands.set_n_hi(choice.max_n);
            let Some(cand_idx) = choice.best else { break };
            self.materialize_candidate(slot, cand_idx, profile);
            splits += 1;
        }
        self.reorg_scratch.benefits = benefits;
        splits
    }

    /// Paper Fig. 2: moves all members of `slot` into its parent, updates
    /// the parent's candidate statistics, reparents the children, and
    /// removes the cluster. The moved members are counted into
    /// `profile`.
    ///
    /// The parent's child table loses the cluster's row and gains one
    /// per reparented child, after the others and in the cluster's
    /// order, each recomputed against the parent's signature.
    ///
    /// The members move in bulk: one column pass per parent candidate
    /// counts them in, and the store appends the child's columns to the
    /// parent's ([`acx_storage::SegmentStore::merge_into`]).
    pub(super) fn merge_cluster(&mut self, slot: u32, profile: &mut ReorgProfile) {
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
        // The dying cluster's statistics are freed with it.
        self.candidates[slot as usize] = CandidateSet::default();
        // Remember the dying signature: a near-term re-materialization
        // of it is a thrash cycle.
        self.recent_merges
            .insert(cluster.signature.to_bytes(), self.clocks.reorganizations);

        let parent = self.clusters[parent_slot as usize]
            .as_mut()
            .expect("parent slot is live");
        parent.children.remove(slot);
        let members = self.store.columns(cluster.segment);
        debug_assert_eq!(
            parent
                .signature
                .first_rejected(Tier::best(), &members, &mut Vec::new()),
            None,
            "the parent rejects a member of cluster {slot}"
        );
        self.candidates[parent_slot as usize].record_members(&members);
        let moved = self.store.merge_into(cluster.segment, parent.segment);
        profile.objects_moved += moved as u64;
        for child in cluster.children.slots() {
            self.cluster_mut(child).parent = Some(parent_slot);
            self.append_child_row(parent_slot, child);
        }
        self.reorg_fault(ReorgFaultPoint::AfterMerge);
    }

    /// Materializes candidate `cand_idx` of cluster `slot` as a new
    /// cluster, moving the qualifying objects; returns the new slot. The
    /// moved members, and the thrash cycle it may complete, are counted
    /// into `profile`.
    ///
    /// The members move in bulk: the store moves them column by column
    /// into the new segment in key order ([`acx_storage::SegmentStore::split_into`]),
    /// so the child starts life ordered, and one column pass per
    /// candidate over the child's columns counts them out of the
    /// parent's candidates and into the child's.
    pub(super) fn materialize_candidate(
        &mut self,
        slot: u32,
        cand_idx: usize,
        profile: &mut ReorgProfile,
    ) -> u32 {
        self.reorg_fault(ReorgFaultPoint::BeforeMaterialize);
        if self.wal.is_some() {
            let signature = self.cluster(slot).signature.to_bytes();
            self.wal_log_structural(WalRecord::Materialize {
                signature,
                // Exact: `IndexConfig::validate` bounds a cluster's
                // candidates by one checkpoint frame.
                candidate: cand_idx as u32,
            });
        }
        let f = self.config.division_factor;
        let (new_signature, expected, inherited_q, inherited_q_eff, parent_epoch, parent_weight) = {
            let cluster = self.cluster(slot);
            let cands = &self.candidates[slot as usize];
            (
                cands.signature(cand_idx, &cluster.signature),
                cands.n(cand_idx) as usize,
                cands.q(cand_idx) as u64,
                cands.q_eff(cand_idx),
                cluster.epoch_start,
                cluster.weight,
            )
        };
        // A signature merged away a few passes ago coming back is one
        // completed split→merge→split cycle.
        if let Some(&merged_at) = self.recent_merges.get(&new_signature.to_bytes()) {
            if self.clocks.reorganizations.saturating_sub(merged_at) < THRASH_WINDOW {
                profile.thrash_cycles += 1;
                self.clocks.total_thrash += 1;
            }
        }
        let new_segment = self.store.create(expected.max(1));
        let mut candidates = CandidateSet::generate(&new_signature, f);
        // Fresh counters are de-facto materialized to the open epoch.
        candidates.set_stamp(self.clocks.stats_epoch);
        let cluster = Cluster {
            signature: new_signature,
            parent: Some(slot),
            children: ChildTable::default(),
            segment: new_segment,
            q_count: inherited_q,
            epoch_start: parent_epoch,
            q_eff: inherited_q_eff,
            weight: parent_weight,
        };
        let new_slot = self.alloc_slot(cluster, candidates);
        assign_segment(&mut self.segment_cluster, new_segment, new_slot);
        self.append_child_row(slot, new_slot);

        // Move qualifying objects; maintain the source cluster's candidate
        // counters and compute the new cluster's.
        let parent_segment = self.cluster(slot).segment;
        let cand = self.candidates[slot as usize].bounds(cand_idx);
        let moved = self
            .store
            .split_into(parent_segment, cand.dim(), new_segment, |lo, hi| {
                cand.accepts_bounds(lo, hi)
            });
        profile.objects_moved += moved as u64;
        let members = self.store.columns(new_segment);
        let parent_cands = &mut self.candidates[slot as usize];
        parent_cands.unrecord_members(&members);
        debug_assert_eq!(parent_cands.n(cand_idx), 0);
        self.candidates[new_slot as usize].recount_members(&members);
        self.reorg_fault(ReorgFaultPoint::AfterMaterialize);
        new_slot
    }

    /// Places a new cluster and its candidate set in a free slot, or
    /// past the last one.
    fn alloc_slot(&mut self, cluster: Cluster, candidates: CandidateSet) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.clusters[slot as usize] = Some(cluster);
            self.candidates[slot as usize] = candidates;
            slot
        } else {
            let slot = cluster_slot(self.clusters.len());
            self.clusters.push(Some(cluster));
            self.candidates.push(candidates);
            slot
        }
    }

    /// Appends `child`'s row to `parent`'s child table: the dimensions
    /// where the child's signature differs from the parent's.
    fn append_child_row(&mut self, parent: u32, child: u32) {
        let mut table = std::mem::take(&mut self.cluster_mut(parent).children);
        table.push(
            child,
            &self.cluster(parent).signature,
            &self.cluster(child).signature,
        );
        self.cluster_mut(parent).children = table;
    }

    /// Brings a cluster's candidate counters up to the current
    /// statistics epoch by replaying every close it skipped — the lazy
    /// half of [`AdaptiveClusterIndex::decay_statistics`], bit-identical
    /// to eager folding ([`CandidateSet::catch_up`]) — and expands the
    /// queries noted since ([`CandidateSet::expand`]).
    pub(super) fn materialize_candidates(&mut self, slot: u32) {
        let cands = &mut self.candidates[slot as usize];
        cands.catch_up_to(self.clocks.stats_epoch);
        cands.expand();
    }

    /// Closes the current statistics epoch: folds the per-cluster scalar
    /// counters into the exponentially decayed history ([`STATS_DECAY`]
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
        let clocks = &mut self.clocks;
        let now = clocks.total_queries;
        let gamma = STATS_DECAY;
        clocks.hist_verified_bytes =
            gamma * clocks.hist_verified_bytes + clocks.epoch_verified_bytes as f64;
        clocks.hist_full_bytes = gamma * clocks.hist_full_bytes + clocks.epoch_full_bytes as f64;
        clocks.epoch_verified_bytes = 0;
        clocks.epoch_full_bytes = 0;
        clocks.stats_epoch += 1;
        for cluster in self.clusters.iter_mut().flatten() {
            let epoch_len = now.saturating_sub(cluster.epoch_start) as f64;
            cluster.q_eff = gamma * cluster.q_eff + cluster.q_count as f64;
            cluster.weight = gamma * cluster.weight + epoch_len;
            cluster.q_count = 0;
            cluster.epoch_start = now;
        }
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
}
