//! Checkpoints (paper §6): the cluster tree with its members, led by a
//! META record of the adaptive state, and the load that turns any file
//! whose bytes would not make a valid index into a typed error.

use std::path::Path;

use acx_storage::{ClusterRecord, FileStore, SegmentStore};

use super::{assign_segment, AdaptiveClusterIndex, Clocks, Cluster};
use crate::candidates::{generate_candidates, StatsArena};
use crate::signature::Signature;
use crate::{IndexConfig, IndexError};

/// The parent field of the root's cluster record.
const NO_PARENT: u32 = u32::MAX;

/// Magic prefix of the checkpoint metadata record (record 0 of a
/// full-fidelity checkpoint). A legacy cluster record cannot collide:
/// its blob starts with a parent index (`0x4D58_4341` would require
/// over a billion clusters) and always carries members or a signature
/// of its own, while the metadata record has no ids and no coords.
const META_MAGIC: &[u8; 8] = b"ACXMETA1";

impl AdaptiveClusterIndex {
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
            clocks: self.clocks,
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
    ///
    /// A file no live index could have written fails with
    /// [`acx_storage::StoreError::Corrupt`]: negative or non-finite
    /// statistics, clocks behind what they stamp, or clusters that are
    /// not one tree of children within their parents.
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
                meta.validate().map_err(corrupt)?;
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
        let mut store = SegmentStore::new(dims);
        let mut stats_arena = StatsArena::new();
        let mut clusters: Vec<Option<Cluster>> = (0..capacity).map(|_| None).collect();
        let mut segment_cluster = Vec::with_capacity(cluster_records.len());
        let mut root = None;
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
            let mut cluster = Cluster {
                signature,
                parent: None,
                children: Vec::new(),
                segment,
                candidates: handle,
                q_count: 0,
                epoch_start: 0,
                q_eff: 0.0,
                weight: 0.0,
            };
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
                candidates.restore_counters(&cm.cand_q, &cm.cand_q_eff, cm.n_hi, cm.stamp);
                cluster.q_count = cm.q_count;
                cluster.epoch_start = cm.epoch_start;
                cluster.q_eff = cm.q_eff;
                cluster.weight = cm.weight;
            }
            if parent == NO_PARENT {
                if root.replace(slot).is_some() {
                    return Err(corrupt("multiple root clusters".into()));
                }
            } else {
                if (parent as usize) >= capacity || !live[parent as usize] {
                    return Err(corrupt(format!("cluster {i}: dangling parent {parent}")));
                }
                cluster.parent = Some(parent);
            }
            clusters[slot as usize] = Some(cluster);
        }
        let root = root.ok_or_else(|| corrupt("no root cluster".into()))?;
        for &slot in &slots {
            if let Some(p) = clusters[slot as usize].as_ref().and_then(|c| c.parent) {
                let parent = clusters[p as usize].as_mut().expect("parents are live");
                parent.children.push(slot);
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
        let mut index = Self::with_tree(
            config,
            store,
            stats_arena,
            clusters,
            free_slots,
            root,
            segment_cluster,
        );
        index.check_tree().map_err(corrupt)?;
        if let Some(meta) = meta {
            index.clocks = meta.clocks;
            index.recent_merges = meta.recent_merges.into_iter().collect();
        }
        Ok(index)
    }
}

/// Shorthand for a corrupt-checkpoint error.
fn corrupt(msg: String) -> IndexError {
    IndexError::Store(acx_storage::StoreError::Corrupt(msg))
}

/// Whether a live index can hold this decayed statistic.
fn decayed(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

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

/// The adaptive state a checkpoint carries beyond the cluster tree;
/// everything else (candidate `n` counters, scratch) is recomputed or
/// safely dropped on load.
struct CheckpointMeta {
    /// Its `checkpoint_id` is matched against the WAL header's stamp.
    clocks: Clocks,
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

impl Clocks {
    /// Appends the clocks in META order, eight little-endian bytes each
    /// (the histories as their bit patterns).
    fn encode(&self, out: &mut Vec<u8>) {
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
    }

    /// Reads what [`Clocks::encode`] wrote (fields initialize in order).
    fn decode(cur: &mut MetaCursor<'_>) -> Result<Self, String> {
        Ok(Self {
            checkpoint_id: cur.u64()?,
            total_queries: cur.u64()?,
            queries_since_reorg: cur.u64()?,
            structure_epoch: cur.u64()?,
            reorganizations: cur.u64()?,
            stats_epoch: cur.u64()?,
            total_merges: cur.u64()?,
            total_splits: cur.u64()?,
            total_thrash: cur.u64()?,
            epoch_verified_bytes: cur.u64()?,
            epoch_full_bytes: cur.u64()?,
            hist_verified_bytes: cur.f64()?,
            hist_full_bytes: cur.f64()?,
        })
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
        self.clocks.encode(&mut out);
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
        let clocks = Clocks::decode(&mut cur)?;
        let cluster_count = cur.u32()?;
        let mut clusters = Vec::new();
        for _ in 0..cluster_count {
            // Fields initialize in the order written: the encoding's.
            let mut c = ClusterMeta {
                slot: cur.u32()?,
                q_count: cur.u64()?,
                epoch_start: cur.u64()?,
                q_eff: cur.f64()?,
                weight: cur.f64()?,
                stamp: cur.u64()?,
                n_hi: cur.u32()?,
                cand_q: Vec::new(),
                cand_q_eff: Vec::new(),
            };
            let ncand = cur.u32()?;
            c.cand_q = (0..ncand).map(|_| cur.u32()).collect::<Result<_, _>>()?;
            c.cand_q_eff = (0..ncand).map(|_| cur.f64()).collect::<Result<_, _>>()?;
            clusters.push(c);
        }
        let free_count = cur.u32()?;
        let free_slots = (0..free_count)
            .map(|_| cur.u32())
            .collect::<Result<_, _>>()?;
        let merge_count = cur.u32()?;
        let mut recent_merges = Vec::new();
        for _ in 0..merge_count {
            let len = cur.u32()? as usize;
            recent_merges.push((cur.take(len)?.to_vec(), cur.u64()?));
        }
        if cur.pos != bytes.len() {
            return Err(format!(
                "checkpoint metadata has {} trailing bytes",
                bytes.len() - cur.pos
            ));
        }
        Ok(Self {
            clocks,
            clusters,
            free_slots,
            recent_merges,
        })
    }

    /// Rejects statistics no live index holds, which the next pass would
    /// overflow on or price unsoundly.
    fn validate(&self) -> Result<(), String> {
        let clocks = &self.clocks;
        if !(decayed(clocks.hist_verified_bytes) && decayed(clocks.hist_full_bytes)) {
            return Err("byte history is negative or not finite".into());
        }
        for (i, cm) in self.clusters.iter().enumerate() {
            if cm.stamp > clocks.stats_epoch {
                return Err(format!(
                    "cluster {i}: decay stamp {} ahead of the statistics epoch {}",
                    cm.stamp, clocks.stats_epoch
                ));
            }
            if cm.epoch_start > clocks.total_queries {
                return Err(format!(
                    "cluster {i}: epoch start {} ahead of the query clock {}",
                    cm.epoch_start, clocks.total_queries
                ));
            }
            if !(decayed(cm.q_eff)
                && decayed(cm.weight)
                && cm.cand_q_eff.iter().all(|&v| decayed(v)))
            {
                return Err(format!("cluster {i}: statistics negative or not finite"));
            }
        }
        if let Some((_, at)) = self
            .recent_merges
            .iter()
            .find(|(_, at)| *at > clocks.reorganizations)
        {
            return Err(format!(
                "a merge is stamped at pass {at}, after the pass clock {}",
                clocks.reorganizations
            ));
        }
        Ok(())
    }
}
