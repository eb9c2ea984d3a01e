//! Checkpoints (paper §6): the cluster tree with its members and its
//! adaptive state as one stream of [`acx_storage::frame`] frames, and
//! the load that turns any file whose bytes would not make a valid index
//! into a typed error naming the frame it came from.
//!
//! ```text
//! header   "ACXF", version 3, dims, checkpoint id
//! CLOCKS   the 13 index-wide clocks, u64 each (histories as bit patterns)
//! per cluster, depth-first from the root, children in their live order:
//!   CLUSTER  slot u32, parent u32 (u32::MAX for the root), members u32,
//!            signature (u32 length, bytes), q_count u64, epoch_start u64,
//!            q_eff f64, weight f64, decay stamp u64, n_hi u32,
//!            ncand u32, ncand × q u32, ncand × q_eff f64
//!   MEMBERS  n u32, n × id u32, n × 2·dims f32 — one per chunk of
//!            members, each under MAX_FRAME, in storage order
//! FREE     count u32, count × slot u32
//! MERGES   count u32, count × (signature: u32 length, bytes; pass u64)
//! END      clusters u32, objects u64
//! ```
//!
//! Signatures are stored with their members, so the tree is rebuilt
//! from the file alone. A reloaded index has the live one's slots, child
//! order, member order, statistics and clocks, so it makes the decisions
//! the live one would. Candidate `n` counters are recounted on load.

use std::collections::HashMap;
use std::path::Path;

use acx_geom::Scalar;
use acx_storage::frame::{
    push_frame, put_bytes, write_atomic, Corruption, Cursor, Frame, Frames, Header, MAX_FRAME,
};
use acx_storage::{SegmentStore, StoreError};

use super::{assign_segment, AdaptiveClusterIndex, ChildTable, Clocks, Cluster};
use crate::candidates::CandidateSet;
use crate::signature::Signature;
use crate::{IndexConfig, IndexError};

const MAGIC: [u8; 4] = *b"ACXF";
/// Version 3: one frame stream (version 2 was a record directory).
const VERSION: u32 = 3;

const TAG_CLOCKS: u8 = 1;
const TAG_CLUSTER: u8 = 2;
const TAG_MEMBERS: u8 = 3;
const TAG_FREE: u8 = 4;
const TAG_MERGES: u8 = 5;
const TAG_END: u8 = 6;

/// The parent field of the root's cluster frame.
const NO_PARENT: u32 = u32::MAX;

/// Bytes of one member in a `MEMBERS` frame: its id and `2·dims`
/// coordinates.
fn member_bytes(dims: usize) -> usize {
    4 + 8 * dims
}

/// Members per `MEMBERS` frame: as many as fit under [`MAX_FRAME`]
/// beside the tag and the count.
fn chunk_members(dims: usize) -> usize {
    (MAX_FRAME as usize - 5) / member_bytes(dims)
}

/// Bytes of the payload of a cluster frame of a `dims`-dimensional
/// cluster owning `candidates` candidates: the tag and the fixed fields
/// (65 bytes), the signature (2 + 18·`dims`) and 12 bytes per candidate
/// (`q` and `q_eff`). `IndexConfig::validate` refuses a configuration
/// whose largest cluster could not be written in one [`MAX_FRAME`] frame.
pub(crate) fn cluster_frame_bytes(dims: u64, candidates: u64) -> u64 {
    67 + 18 * dims + 12 * candidates
}

/// Appends a count as a `u32`. Each count is exact there: members per
/// chunk and candidates per cluster frame fit one [`MAX_FRAME`] frame,
/// and cluster and free-slot counts number `u32` slots.
fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

impl AdaptiveClusterIndex {
    /// Persists a checkpoint to `path` (layout in the module doc),
    /// replacing it atomically and durably ([`write_atomic`]). A frame
    /// over [`MAX_FRAME`] fails it as [`StoreError::Io`] (`InvalidInput`)
    /// before anything is written.
    pub fn save(&self, path: &Path) -> Result<(), IndexError> {
        let out = self.encode().map_err(StoreError::Io)?;
        write_atomic(path, &out).map_err(StoreError::Io)?;
        Ok(())
    }

    /// The checkpoint's bytes.
    fn encode(&self) -> std::io::Result<Vec<u8>> {
        let dims = self.config.dims;
        let header = Header {
            magic: MAGIC,
            version: VERSION,
            dims,
            checkpoint_id: self.clocks.checkpoint_id,
        };
        let mut out = Vec::with_capacity(4096 + self.len() * member_bytes(dims));
        out.extend_from_slice(&header.encode());
        push_frame(&mut out, |o| {
            o.push(TAG_CLOCKS);
            self.clocks.encode(o);
        })?;
        let per_chunk = chunk_members(dims);
        let mut flat = Vec::with_capacity(2 * dims);
        let mut stack = vec![self.root];
        while let Some(slot) = stack.pop() {
            let cluster = self.cluster(slot);
            stack.extend(cluster.children.slots().rev());
            let cands = &self.candidates[slot as usize];
            let ids = self.store.ids(cluster.segment);
            push_frame(&mut out, |o| {
                o.push(TAG_CLUSTER);
                let parent = cluster.parent.unwrap_or(NO_PARENT);
                for v in [slot, parent] {
                    o.extend_from_slice(&v.to_le_bytes());
                }
                // Exact: the store keeps a segment's positions in `u32`s.
                put_u32(o, ids.len());
                put_bytes(o, &cluster.signature.to_bytes());
                o.extend_from_slice(&cluster.q_count.to_le_bytes());
                o.extend_from_slice(&cluster.epoch_start.to_le_bytes());
                o.extend_from_slice(&cluster.q_eff.to_bits().to_le_bytes());
                o.extend_from_slice(&cluster.weight.to_bits().to_le_bytes());
                o.extend_from_slice(&cands.stamp().to_le_bytes());
                o.extend_from_slice(&cands.n_hi().to_le_bytes());
                put_u32(o, cands.len());
                o.extend(cands.expanded_q().iter().flat_map(|q| q.to_le_bytes()));
                for q_eff in cands.q_eff_col() {
                    o.extend_from_slice(&q_eff.to_bits().to_le_bytes());
                }
            })?;
            for (c, chunk) in ids.chunks(per_chunk).enumerate() {
                push_frame(&mut out, |o| {
                    o.push(TAG_MEMBERS);
                    put_u32(o, chunk.len());
                    o.extend(chunk.iter().flat_map(|id| id.to_le_bytes()));
                    for k in c * per_chunk..c * per_chunk + chunk.len() {
                        self.store.read_object_into(cluster.segment, k, &mut flat);
                        for v in &flat {
                            o.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                })?;
            }
        }
        push_frame(&mut out, |o| {
            o.push(TAG_FREE);
            put_u32(o, self.free_slots.len());
            o.extend(self.free_slots.iter().flat_map(|s| s.to_le_bytes()));
        })?;
        // Sorted for a byte-deterministic checkpoint (the map iterates
        // in arbitrary order).
        let mut merges: Vec<_> = self.recent_merges.iter().collect();
        merges.sort();
        push_frame(&mut out, |o| {
            o.push(TAG_MERGES);
            put_u32(o, merges.len());
            for (signature, pass) in merges {
                put_bytes(o, signature);
                o.extend_from_slice(&pass.to_le_bytes());
            }
        })?;
        push_frame(&mut out, |o| {
            o.push(TAG_END);
            put_u32(o, self.cluster_count());
            o.extend_from_slice(&(self.len() as u64).to_le_bytes());
        })?;
        Ok(out)
    }

    /// Restores an index persisted by [`AdaptiveClusterIndex::save`].
    /// The configuration must use the same dimensionality.
    ///
    /// A file no live index could have written — a damaged, unknown or
    /// misplaced frame, a parent after its child, impossible statistics,
    /// slots or members, or counts the end frame disagrees with — fails
    /// with [`StoreError::Corrupt`] naming the frame.
    pub fn load(path: &Path, config: IndexConfig) -> Result<Self, IndexError> {
        config.validate()?;
        let bytes = std::fs::read(path).map_err(StoreError::Io)?;
        let header = Header::parse(&bytes, MAGIC)?
            .ok_or_else(|| Corruption::new(0, 0, "header cut short"))?;
        if header.version != VERSION {
            return Err(StoreError::UnsupportedVersion(header.version).into());
        }
        if header.dims != config.dims {
            return Err(IndexError::DimensionMismatch {
                expected: config.dims,
                actual: header.dims,
            });
        }
        let mut frames = Frames::after_header(&bytes);
        let clocks_frame = expect(&mut frames, &[TAG_CLOCKS])?;
        let mut cur = clocks_frame.cursor();
        let clocks = Clocks::decode(&mut cur)?;
        cur.finish()?;
        let same_id = clocks.checkpoint_id == header.checkpoint_id;
        ensure(same_id, &clocks_frame, || {
            "checkpoint id differs from the header's".into()
        })?;
        let sound = decayed(clocks.hist_verified_bytes) && decayed(clocks.hist_full_bytes);
        ensure(sound, &clocks_frame, || {
            "byte history is negative or not finite".into()
        })?;

        // The object count is in the end frame, read last; every member
        // takes `member_bytes` of the file and members are nearly all of
        // it, so the file's length sizes the id table once, closely and
        // never short.
        let most_objects = bytes.len() / member_bytes(header.dims);
        let mut tree = Loading {
            store: SegmentStore::with_capacity(header.dims, most_objects),
            segment_cluster: Vec::new(),
            clusters: Vec::new(),
            by_slot: HashMap::new(),
            file_len: bytes.len(),
            division_factor: config.division_factor,
            clocks,
            accepted: Vec::new(),
            chunk_ids: Vec::new(),
            chunk_flat: Vec::new(),
        };
        let mut frame = expect(&mut frames, &[TAG_CLUSTER, TAG_FREE])?;
        while frame.tag() == TAG_CLUSTER {
            tree.read_cluster(&frame, &mut frames)?;
            frame = expect(&mut frames, &[TAG_CLUSTER, TAG_FREE])?;
        }
        let Some(&(root, ..)) = tree.clusters.first() else {
            return Err(frame.corrupt("no root cluster").into());
        };
        let mut cur = frame.cursor();
        let count = cur.u32()? as usize;
        let free_slots: Vec<u32> = u32s(cur.items(count, 4)?).collect();
        cur.finish()?;
        // Live and free slots partition the slot space, so its size is
        // their count — not the highest live slot plus one: merges can
        // free the topmost slots. The free list must be exactly the
        // holes, so recycled slot numbers stay replay-stable.
        let capacity = tree.clusters.len() + free_slots.len();
        let mut taken = vec![false; capacity];
        for (slot, what) in (tree.clusters.iter().map(|c| (c.0, "cluster")))
            .chain(free_slots.iter().map(|&s| (s, "free")))
        {
            let place = taken.get_mut(slot as usize);
            ensure(
                place.is_some_and(|t| !std::mem::replace(t, true)),
                &frame,
                || format!("{what} slot {slot} is out of range or taken twice"),
            )?;
        }

        let frame = expect(&mut frames, &[TAG_MERGES])?;
        let mut cur = frame.cursor();
        let mut recent_merges = HashMap::new();
        for _ in 0..cur.u32()? {
            let (signature, pass) = (cur.bytes()?.to_vec(), cur.u64()?);
            ensure(pass <= clocks.reorganizations, &frame, || {
                let clock = clocks.reorganizations;
                format!("a merge is stamped at pass {pass}, after the pass clock {clock}")
            })?;
            recent_merges.insert(signature, pass);
        }
        cur.finish()?;

        let end = expect(&mut frames, &[TAG_END])?;
        let mut cur = end.cursor();
        let counts = (cur.u32()? as usize, cur.u64()?);
        cur.finish()?;
        let held = (tree.clusters.len(), tree.store.len() as u64);
        ensure(counts == held, &end, || {
            format!(
                "the end frame counts (clusters, objects) {counts:?}, the stream holds {held:?}"
            )
        })?;
        if let Some(extra) = frames.next() {
            return Err(extra
                .map_or_else(|c| c, |f| f.corrupt("a frame after the end frame"))
                .into());
        }

        let mut slots: Vec<Option<Cluster>> = (0..capacity).map(|_| None).collect();
        let mut candidates = vec![CandidateSet::default(); capacity];
        for (slot, cluster, set) in tree.clusters {
            slots[slot as usize] = Some(cluster);
            candidates[slot as usize] = set;
        }
        let mut index = Self::with_tree(
            config,
            tree.store,
            slots,
            candidates,
            free_slots,
            root,
            tree.segment_cluster,
        );
        index.check_tree().map_err(|why| end.corrupt(why))?;
        index.clocks = clocks;
        index.recent_merges = recent_merges;
        Ok(index)
    }
}

/// `Err` naming `frame` unless `ok`.
fn ensure(ok: bool, frame: &Frame<'_>, why: impl FnOnce() -> String) -> Result<(), Corruption> {
    if ok {
        Ok(())
    } else {
        Err(frame.corrupt(why()))
    }
}

/// The next frame, which must carry one of `tags`; the stream must not
/// end before its end frame.
fn expect<'a>(frames: &mut Frames<'a>, tags: &[u8]) -> Result<Frame<'a>, Corruption> {
    let frame = match frames.next() {
        Some(frame) => frame?,
        None => return Err(frames.corrupt_here("the stream ends before its end frame")),
    };
    match frame.tag() {
        t if tags.contains(&t) => Ok(frame),
        t @ TAG_CLOCKS..=TAG_END => Err(frame.corrupt(format!("tag {t} out of place"))),
        t => Err(frame.corrupt(format!("unknown tag {t}"))),
    }
}

fn u32s(raw: &[u8]) -> impl Iterator<Item = u32> + '_ {
    raw.as_chunks().0.iter().map(|&b| u32::from_le_bytes(b))
}

/// Whether a live index can hold this decayed statistic.
fn decayed(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

/// The clusters `load` has read so far, in record order, and what they
/// are built into.
struct Loading {
    store: SegmentStore,
    segment_cluster: Vec<u32>,
    /// Each cluster read so far, with its slot and candidate set.
    clusters: Vec<(u32, Cluster, CandidateSet)>,
    /// Slot → position in `clusters`.
    by_slot: HashMap<u32, usize>,
    /// Bounds the member counts cluster frames declare.
    file_len: usize,
    division_factor: u8,
    clocks: Clocks,
    /// [`Signature::first_rejected`]'s scratch, reused across clusters.
    accepted: Vec<bool>,
    /// One `MEMBERS` frame decoded, reused across frames: its ids and
    /// its members' interleaved coordinates.
    chunk_ids: Vec<u32>,
    chunk_flat: Vec<Scalar>,
}

impl Loading {
    /// Builds the cluster of a `CLUSTER` frame from it and the `MEMBERS`
    /// frames that follow it, and hangs it under its parent. Each
    /// `MEMBERS` frame is decoded whole and appended in one call, which
    /// stops at an id already stored: that frame is reported. The
    /// members are held to the signature by columns once all are in the
    /// segment, so one that falls outside it is reported on the cluster
    /// frame.
    fn read_cluster(
        &mut self,
        frame: &Frame<'_>,
        frames: &mut Frames<'_>,
    ) -> Result<(), IndexError> {
        let dims = self.store.dims();
        let mut cur = frame.cursor();
        let slot = cur.u32()?;
        let parent = cur.u32()?;
        let members = cur.u32()? as usize;
        let signature = Signature::from_bytes(cur.bytes()?)
            .ok_or_else(|| frame.corrupt("undecodable signature"))?;
        ensure(signature.dims() == dims, frame, || {
            format!("a {}-dimensional signature", signature.dims())
        })?;
        // The root's signature never changes after `new`; a wider one
        // would generate candidates of non-finite bounds.
        ensure(
            parent != NO_PARENT || signature == Signature::root(dims),
            frame,
            || "a root whose signature is not the domain".into(),
        )?;
        let (q_count, epoch_start) = (cur.u64()?, cur.u64()?);
        let (q_eff, weight) = (f64::from_bits(cur.u64()?), f64::from_bits(cur.u64()?));
        let (stamp, n_hi, ncand) = (cur.u64()?, cur.u32()?, cur.u32()? as usize);
        let mut candidates = CandidateSet::generate(&signature, self.division_factor);
        let generated = candidates.len();
        ensure(ncand == generated, frame, || {
            format!("{ncand} persisted candidate counters but the signature generates {generated}")
        })?;
        let cand_q: Vec<u32> = u32s(cur.items(ncand, 4)?).collect();
        let cand_q_eff = cur.items(ncand, 8)?.as_chunks().0;
        let cand_q_eff: Vec<f64> = cand_q_eff.iter().map(|&b| f64::from_le_bytes(b)).collect();
        cur.finish()?;
        let (epoch, queries) = (self.clocks.stats_epoch, self.clocks.total_queries);
        ensure(stamp <= epoch, frame, || {
            format!("decay stamp {stamp} ahead of the statistics epoch {epoch}")
        })?;
        ensure(epoch_start <= queries, frame, || {
            format!("epoch start {epoch_start} ahead of the query clock {queries}")
        })?;
        let sound = decayed(q_eff) && decayed(weight) && cand_q_eff.iter().all(|&v| decayed(v));
        ensure(sound, frame, || "statistics negative or not finite".into())?;
        ensure(members <= self.file_len / member_bytes(dims), frame, || {
            format!("{members} members, more than the file holds")
        })?;

        let parent = match parent {
            NO_PARENT if self.clusters.is_empty() => None,
            NO_PARENT => return Err(frame.corrupt("multiple root clusters").into()),
            p => {
                let Some(&at) = self.by_slot.get(&p) else {
                    let why = format!("parent {p} does not come before cluster {slot}");
                    return Err(frame.corrupt(why).into());
                };
                let parent = &mut self.clusters[at].1;
                parent.children.push(slot, &parent.signature, &signature);
                Some(p)
            }
        };
        let listed = self.by_slot.insert(slot, self.clusters.len());
        ensure(listed.is_none(), frame, || {
            format!("cluster slot {slot} listed twice")
        })?;

        let segment = self.store.create(members);
        assign_segment(&mut self.segment_cluster, segment, slot);
        let width = 2 * dims;
        let mut read = 0;
        while read < members {
            let chunk = expect(frames, &[TAG_MEMBERS])?;
            let mut cur = chunk.cursor();
            let n = cur.u32()? as usize;
            let left = members - read;
            ensure((1..=left).contains(&n), &chunk, || {
                format!("a chunk of {n} members where {left} remain")
            })?;
            let ids = cur.items(n, 4)?;
            let coords = cur.items(n, 4 * width)?;
            cur.finish()?;
            let (chunk_ids, flat) = (&mut self.chunk_ids, &mut self.chunk_flat);
            chunk_ids.clear();
            chunk_ids.extend(u32s(ids));
            flat.clear();
            let coords = coords.as_chunks().0.iter();
            flat.extend(coords.map(|&b| Scalar::from_le_bytes(b)));
            let stored = self.store.append(segment, chunk_ids, flat);
            if let Some(oid) = chunk_ids.get(stored) {
                let why = format!("object #{oid} appears in two clusters");
                return Err(chunk.corrupt(why).into());
            }
            read += n;
        }
        let columns = self.store.columns(segment);
        if let Some(k) = signature.first_rejected(&columns, &mut self.accepted) {
            let oid = self.store.ids(segment)[k];
            let why = format!("object #{oid} violates its cluster's signature");
            return Err(frame.corrupt(why).into());
        }
        candidates.recount_members(&columns);
        candidates.restore_counters(&cand_q, &cand_q_eff, n_hi, stamp);
        let cluster = Cluster {
            signature,
            parent,
            children: ChildTable::default(),
            segment,
            q_count,
            epoch_start,
            q_eff,
            weight,
        };
        self.clusters.push((slot, cluster, candidates));
        Ok(())
    }
}

impl Clocks {
    /// Appends the clocks, eight little-endian bytes each (the
    /// histories as their bit patterns).
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
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, Corruption> {
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
            hist_verified_bytes: f64::from_bits(cur.u64()?),
            hist_full_bytes: f64::from_bits(cur.u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
    use acx_storage::StorageScenario;

    use crate::{AdaptiveClusterIndex, IndexConfig};

    /// The writer saves each set's `q` with its pending notes added,
    /// without expanding them: the bytes equal those saved after every
    /// set was expanded.
    #[test]
    fn a_checkpoint_with_notes_pending_equals_one_saved_after_expansion() {
        let config = IndexConfig {
            reorg_period: 0,
            ..IndexConfig::edbt2004(3, StorageScenario::Memory)
        };
        let mut index = AdaptiveClusterIndex::new(config).unwrap();
        let mut state = 0x5EED_u64;
        let mut coord = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 40) as Scalar / (1u64 << 24) as Scalar
        };
        for i in 0..400 {
            let (lo, hi): (Vec<Scalar>, Vec<Scalar>) = (0..3)
                .map(|_| {
                    let a = coord() * 0.9;
                    (a, a + coord() * 0.1)
                })
                .unzip();
            index
                .insert(ObjectId(i), HyperRect::from_bounds(&lo, &hi).unwrap())
                .unwrap();
        }
        let mut queries = Vec::new();
        for k in 0..240 {
            let (a, b, c) = (coord() * 0.3, coord() * 0.3, coord() * 0.3);
            let w = HyperRect::from_bounds(&[a, b, c], &[a + 0.2, b + 0.3, c + 0.1]).unwrap();
            queries.push(match k % 4 {
                0 => SpatialQuery::intersection(w),
                1 => SpatialQuery::containment(w),
                2 => SpatialQuery::enclosure(w),
                _ => SpatialQuery::point_enclosing(vec![a, b, c]),
            });
        }
        for (round, chunk) in queries.chunks(80).enumerate() {
            for q in chunk {
                index.execute(q);
            }
            if round < 2 {
                index.reorganize();
            }
        }
        assert!(index.cluster_count() > 1, "test premise: the index split");
        let pending = |index: &AdaptiveClusterIndex| {
            let sets = index.candidates.iter();
            sets.filter(|c| matches!(c.expanded_q(), Cow::Owned(_)))
                .count()
        };
        assert!(pending(&index) > 1, "test premise: notes pending");
        let saved_pending = index.encode().unwrap();
        for cands in &mut index.candidates {
            cands.expand();
        }
        assert_eq!(pending(&index), 0);
        assert!(
            index
                .candidates
                .iter()
                .any(|c| c.q_col().iter().any(|&q| q > 0)),
            "test premise: notes expanded into counts"
        );
        assert!(
            saved_pending == index.encode().unwrap(),
            "checkpoint bytes differ"
        );
    }
}
