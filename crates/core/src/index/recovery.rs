//! Durability (paper §6): the write-ahead log a live index appends to,
//! the checkpoint that truncates it, and [`AdaptiveClusterIndex::recover`],
//! which replays a log's surviving suffix on top of a checkpoint.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use acx_geom::{HyperRect, ObjectId};
use acx_storage::{BackingStore, FlushPolicy, Wal, WalError, WalRecord};

use super::{cluster_slot, AdaptiveClusterIndex};
use crate::metrics::{RecoveryProfile, RecoveryReport, ReorgProfile};
use crate::{IndexConfig, IndexError};

impl AdaptiveClusterIndex {
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
        self.check_dims(wal.dims())?;
        if wal.checkpoint_id() != self.clocks.checkpoint_id {
            wal.reset_to(self.clocks.checkpoint_id)
                .map_err(IndexError::Wal)?;
        }
        self.wal = Some(wal);
        Ok(())
    }

    /// Detaches and returns the write-ahead log, if one is attached.
    pub fn detach_wal(&mut self) -> Option<Wal> {
        self.wal.take()
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

    /// Appends a record on a user-facing mutation path: the failure
    /// aborts the mutation before any in-memory state has moved.
    #[inline]
    pub(super) fn wal_append(&mut self, record: &WalRecord) -> Result<(), IndexError> {
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
    pub(super) fn wal_log_structural(&mut self, record: WalRecord) {
        let Some(wal) = self.wal.as_mut() else { return };
        if let Err(e) = wal.append(&record) {
            self.wal_failure.get_or_insert(e);
        }
    }

    /// Puts every segment in key order (free for an ordered one).
    fn order_segments(&mut self) {
        for cluster in self.clusters.iter().flatten() {
            self.store.order(cluster.segment);
        }
    }

    /// Writes a checkpoint to `path` and, on success, truncates the
    /// attached WAL: the checkpoint now carries everything the log
    /// recorded, so recovery needs only the records appended after it.
    ///
    /// The two steps are coupled by a checkpoint id: the saved
    /// checkpoint and the truncated log's header both carry the new id. A
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
        let id = self.clocks.checkpoint_id + 1;
        // The checkpoint encodes the current id: bump before the save,
        // roll back if it fails so a retry reuses the id.
        self.clocks.checkpoint_id = id;
        if let Err(e) = self.save(path) {
            self.clocks.checkpoint_id = id - 1;
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
        let mut profile = RecoveryProfile::default();
        let started = Instant::now();
        let mut index = match checkpoint {
            Some(path) => Self::load(path, config)?,
            None => Self::new(config)?,
        };
        profile.load_ns = nanos_since(started);
        let checkpoint_id = index.clocks.checkpoint_id;
        let (mut wal, replay) = Wal::reopen(store, policy, index.config.dims)?;
        if wal.checkpoint_id() > checkpoint_id {
            return Err(IndexError::Recovery {
                record: 0,
                detail: format!(
                    "wal is stamped with checkpoint {} but the loaded checkpoint is {}: \
                     the checkpoint that truncated this log is missing or stale",
                    wal.checkpoint_id(),
                    checkpoint_id
                ),
            });
        }
        // A stale stamp: the checkpoint was saved but the crash hit
        // before the log was truncated. Its records are history the
        // checkpoint already contains — replaying them would
        // double-apply structure and duplicate inserts.
        let stale = wal.checkpoint_id() < checkpoint_id;
        let (records, superseded, torn) = if stale {
            (&[] as &[WalRecord], replay.records.len() as u64, None)
        } else {
            (&replay.records[..], 0, replay.torn)
        };
        let mut epoch_changed = false;
        let mut by_signature = SlotsBySignature::default();
        for (slot, cluster) in index.clusters.iter().enumerate() {
            if let Some(cluster) = cluster {
                by_signature.insert(cluster.signature.to_bytes(), cluster_slot(slot));
            }
        }
        index.replaying = true;
        let started = Instant::now();
        for (i, record) in records.iter().enumerate() {
            index
                .apply_wal_record(record, &mut by_signature, &mut epoch_changed, &mut profile)
                .map_err(|detail| IndexError::Recovery {
                    record: i as u64,
                    detail,
                })?;
        }
        profile.replay_ns = nanos_since(started);
        index.replaying = false;
        // One ordering of everything instead of the write path's many.
        let started = Instant::now();
        index.order_segments();
        index
            .check_invariants()
            .map_err(|detail| IndexError::Recovery {
                record: records.len() as u64,
                detail,
            })?;
        profile.audit_ns = nanos_since(started);
        if stale {
            wal.reset_to(checkpoint_id).map_err(IndexError::Wal)?;
        }
        let report = RecoveryReport {
            replayed_records: records.len() as u64,
            superseded_records: superseded,
            torn_tail: torn,
            clusters: index.cluster_count(),
            objects: index.len(),
            profile,
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
    /// them. Each record is counted into `profile` by kind, and the
    /// structural ones are timed.
    fn apply_wal_record(
        &mut self,
        record: &WalRecord,
        by_signature: &mut SlotsBySignature,
        epoch_changed: &mut bool,
        profile: &mut RecoveryProfile,
    ) -> Result<(), String> {
        match record {
            WalRecord::Insert { id, coords } => {
                profile.inserts += 1;
                let rect = HyperRect::from_flat(coords).map_err(|e| e.to_string())?;
                self.insert(ObjectId(*id), rect).map_err(|e| e.to_string())
            }
            WalRecord::Remove { id } => {
                profile.removes += 1;
                self.remove(ObjectId(*id))
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            WalRecord::Update { id, coords } => {
                profile.updates += 1;
                let rect = HyperRect::from_flat(coords).map_err(|e| e.to_string())?;
                self.update(ObjectId(*id), rect)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            WalRecord::Merge { signature } => {
                profile.merges += 1;
                let started = Instant::now();
                let slot = by_signature
                    .slot(signature)
                    .ok_or("merge of an unknown cluster signature")?;
                if slot == self.root {
                    return Err("merge of the root cluster".into());
                }
                self.merge_cluster(slot, &mut ReorgProfile::default());
                by_signature.remove(signature, slot);
                self.clocks.total_merges += 1;
                *epoch_changed = true;
                profile.merge_ns += nanos_since(started);
                Ok(())
            }
            WalRecord::Materialize {
                signature,
                candidate,
            } => {
                profile.materializes += 1;
                let started = Instant::now();
                let slot = by_signature
                    .slot(signature)
                    .ok_or("materialization from an unknown cluster signature")?;
                // The live scan catches the counters up to the open
                // epoch before picking a candidate; mirror it so the
                // child inherits identically decayed statistics.
                self.materialize_candidates(slot);
                let ci = *candidate as usize;
                let ncand = self.candidates[slot as usize].len();
                if ci >= ncand {
                    return Err(format!("candidate {ci} out of range ({ncand} candidates)"));
                }
                let child = self.materialize_candidate(slot, ci, &mut ReorgProfile::default());
                by_signature.insert(self.cluster(child).signature.to_bytes(), child);
                self.clocks.total_splits += 1;
                *epoch_changed = true;
                profile.materialize_ns += nanos_since(started);
                Ok(())
            }
            WalRecord::EpochClose => {
                profile.epoch_closes += 1;
                self.close_epoch(*epoch_changed);
                *epoch_changed = false;
                Ok(())
            }
        }
    }
}

/// Wall nanoseconds since `started`, saturating at `u64::MAX`.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
