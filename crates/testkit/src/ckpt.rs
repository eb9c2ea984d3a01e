//! The checkpoint's layout as the tests read, patch and hand-build it:
//! the one test-side copy of what `acx_core`'s `index/checkpoint.rs`
//! writes (its module doc has the layout). A format change is edited
//! here, not in each suite.
//!
//! A [`Checkpoint`] holds the header and each frame's payload, tag
//! first; [`Checkpoint::bytes`] re-frames the payloads through the
//! public frame codec, so a test that patches a payload gets past the
//! CRC and reaches `load`'s decoding and checks.

use std::ops::Range;
use std::path::Path;

use acx_core::{AdaptiveClusterIndex, IndexConfig, Signature, STATS_DECAY};
use acx_geom::Scalar;
use acx_storage::frame::{push_frame, Frames, Header, HEADER_LEN};

const MAGIC: [u8; 4] = *b"ACXF";
const VERSION: u32 = 3;

/// Frame tags, in stream order.
pub const CLOCKS: u8 = 1;
pub const CLUSTER: u8 = 2;
pub const MEMBERS: u8 = 3;
pub const FREE: u8 = 4;
pub const MERGES: u8 = 5;
pub const END: u8 = 6;

/// Index-wide clocks the tests read ([`Checkpoint::clock`]), by their
/// position in the clocks frame (13 `u64`s).
pub const REORGANIZATIONS: usize = 4;
pub const STATS_EPOCH: usize = 5;
const CLOCK_COUNT: usize = 13;

/// Cluster-frame payload offsets of the fixed fields (the tag is byte
/// 0): `slot`, `parent` (`u32::MAX` for the root), the member count,
/// the signature's length and its bytes.
const SLOT: usize = 1;
pub const PARENT: usize = 5;
const SIGNATURE_LEN: usize = 13;
const SIGNATURE: usize = 17;
/// The counters after the signature: `q_count`, `epoch_start`, `q_eff`,
/// `weight`, the decay stamp and `n_hi`, then `ncand`.
const COUNTERS_LEN: usize = 44;
/// Where the decay stamp (`u64`) sits past [`ClusterFrame::counters`].
pub const DECAY_STAMP: usize = 32;

fn u32_at(payload: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(payload[at..at + 4].try_into().unwrap())
}

/// A checkpoint file as its header and its frames' payloads.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub header: Vec<u8>,
    pub frames: Vec<Vec<u8>>,
}

/// Where a cluster frame's fields sit in its payload.
#[derive(Debug, Clone)]
pub struct ClusterFrame {
    /// Index of the frame in [`Checkpoint::frames`].
    pub frame: usize,
    /// Indices of its member frames.
    pub member_frames: Range<usize>,
    pub slot: u32,
    pub parent: u32,
    /// The signature's bytes.
    pub signature: Range<usize>,
    /// Start of the counters: everything from here on is statistics.
    pub counters: usize,
    pub ncand: usize,
    /// Start of the candidates' `u32` epoch counters.
    pub q: usize,
    /// Start of the candidates' `f64` histories.
    pub q_eff: usize,
}

impl Checkpoint {
    /// Splits a checkpoint file into header and payloads; every frame
    /// must pass its checksum.
    pub fn parse(bytes: &[u8]) -> Self {
        Checkpoint {
            header: bytes[..HEADER_LEN].to_vec(),
            frames: Frames::after_header(bytes)
                .map(|f| f.unwrap().payload().to_vec())
                .collect(),
        }
    }

    /// The index's checkpoint ([`crate::checkpoint_bytes`]).
    pub fn of(index: &AdaptiveClusterIndex) -> Self {
        Self::parse(&crate::checkpoint_bytes(index))
    }

    /// The file: the header, then each payload framed by the codec.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = self.header.clone();
        for payload in &self.frames {
            push_frame(&mut out, |o| o.extend_from_slice(payload)).unwrap();
        }
        out
    }

    /// The header's dimensionality.
    pub fn dims(&self) -> usize {
        u32_at(&self.header, 8) as usize
    }

    /// Clock `i` of the clocks frame (the first frame).
    pub fn clock(&self, i: usize) -> u64 {
        let at = 1 + 8 * i;
        u64::from_le_bytes(self.frames[0][at..at + 8].try_into().unwrap())
    }

    /// Every cluster frame, in stream order (depth-first from the root).
    pub fn clusters(&self) -> Vec<ClusterFrame> {
        let tags: Vec<u8> = self.frames.iter().map(|p| p[0]).collect();
        let clusters = (0..tags.len()).filter(|&i| tags[i] == CLUSTER);
        clusters
            .map(|frame| {
                let p = &self.frames[frame];
                let members = frame + 1;
                let end = (members..tags.len()).find(|&i| tags[i] != MEMBERS);
                let signature = SIGNATURE..SIGNATURE + u32_at(p, SIGNATURE_LEN) as usize;
                let counters = signature.end;
                let ncand = u32_at(p, counters + COUNTERS_LEN) as usize;
                let q = counters + COUNTERS_LEN + 4;
                ClusterFrame {
                    frame,
                    member_frames: members..end.unwrap_or(tags.len()),
                    slot: u32_at(p, SLOT),
                    parent: u32_at(p, PARENT),
                    signature,
                    counters,
                    ncand,
                    q,
                    q_eff: q + 4 * ncand,
                }
            })
            .collect()
    }

    /// The recent-merge frame's index, and where each merge's pass
    /// stamp (a `u64` after its signature) sits in that payload.
    pub fn merge_passes(&self) -> (usize, Vec<usize>) {
        let frame = self.frames.iter().position(|p| p[0] == MERGES).unwrap();
        let p = &self.frames[frame];
        let mut at = 5;
        let passes = (0..u32_at(p, 1))
            .map(|_| {
                at += 4 + u32_at(p, at) as usize + 8;
                at - 8
            })
            .collect();
        (frame, passes)
    }

    /// The free-slot frame's slots, in stack order (the next slot a
    /// split reuses is the last).
    pub fn free_slots(&self) -> Vec<u32> {
        let p = self.frames.iter().find(|p| p[0] == FREE).unwrap();
        (0..u32_at(p, 1) as usize)
            .map(|k| u32_at(p, 5 + 4 * k))
            .collect()
    }

    /// The recent-merge frame's `(signature bytes, pass)` pairs, in
    /// stream order (sorted).
    pub fn recent_merges(&self) -> Vec<(Vec<u8>, u64)> {
        let (frame, passes) = self.merge_passes();
        let p = &self.frames[frame];
        let mut start = 5;
        passes
            .into_iter()
            .map(|at| {
                let signature = p[start + 4..at].to_vec();
                start = at + 8;
                (
                    signature,
                    u64::from_le_bytes(p[at..at + 8].try_into().unwrap()),
                )
            })
            .collect()
    }

    /// A cluster's members in storage order, across its member frames:
    /// `(id, 2·dims coordinates)`.
    pub fn members(&self, cluster: &ClusterFrame) -> Vec<(u32, Vec<Scalar>)> {
        let coords = 2 * self.dims();
        let mut out = Vec::new();
        for payload in &self.frames[cluster.member_frames.clone()] {
            let n = u32_at(payload, 1) as usize;
            let (ids, rest) = payload[5..].split_at(4 * n);
            let values = rest
                .chunks_exact(4)
                .map(|b| Scalar::from_le_bytes(b.try_into().unwrap()));
            let values: Vec<Scalar> = values.collect();
            assert_eq!(values.len(), n * coords, "a member frame's length");
            let ids = ids.chunks_exact(4).map(|b| u32_at(b, 0));
            out.extend(ids.zip(values.chunks_exact(coords).map(<[Scalar]>::to_vec)));
        }
        out
    }
}

/// A hand-built 2-d cluster: its parent's slot, its signature and its
/// `(id, coords)` members.
pub type TreeCluster<'a> = (Option<u32>, &'a Signature, &'a [(u32, [Scalar; 4])]);

/// Writes a checkpoint of a hand-built tree: `clusters` in depth-first
/// order, each cluster's slot its position, every statistic and clock
/// zero — as if no query had run.
pub fn write_tree(path: &Path, config: &IndexConfig, clusters: &[TreeCluster]) {
    let header = Header {
        magic: MAGIC,
        version: VERSION,
        dims: config.dims,
        checkpoint_id: 0,
    };
    let u32s = |o: &mut Vec<u8>, vs: &[u32]| vs.iter().for_each(|v| o.extend(v.to_le_bytes()));
    let mut frames = vec![[vec![CLOCKS], vec![0; 8 * CLOCK_COUNT]].concat()];
    for (slot, (parent, signature, members)) in clusters.iter().enumerate() {
        let ncand = crate::model::candidate_cells(signature, config.division_factor).len();
        let signature = signature.to_bytes();
        let mut o = vec![CLUSTER];
        let parent = parent.unwrap_or(u32::MAX);
        let len = signature.len() as u32;
        u32s(&mut o, &[slot as u32, parent, members.len() as u32, len]);
        o.extend(&signature);
        o.extend(vec![0; COUNTERS_LEN]);
        u32s(&mut o, &[ncand as u32]);
        o.extend(vec![0; 12 * ncand]);
        frames.push(o);
        let mut o = vec![MEMBERS];
        u32s(&mut o, &[members.len() as u32]);
        members.iter().for_each(|(id, _)| u32s(&mut o, &[*id]));
        members
            .iter()
            .flat_map(|(_, coords)| coords)
            .for_each(|c| o.extend(c.to_le_bytes()));
        frames.push(o);
    }
    frames.push(vec![FREE, 0, 0, 0, 0]);
    frames.push(vec![MERGES, 0, 0, 0, 0]);
    let objects: usize = clusters.iter().map(|c| c.2.len()).sum();
    let mut end = vec![END];
    u32s(&mut end, &[clusters.len() as u32]);
    end.extend((objects as u64).to_le_bytes());
    frames.push(end);
    let checkpoint = Checkpoint {
        header: header.encode().to_vec(),
        frames,
    };
    std::fs::write(path, checkpoint.bytes()).unwrap();
}

/// One cluster's counters as its cluster frame carries them (from
/// [`ClusterFrame::counters`] to the end: statistics, decay stamp and
/// `n_hi`, `ncand`, then the `q` and `q_eff` columns), with the
/// candidate counters' lazy decay caught up to `epoch` exactly as
/// `CandidateSet::catch_up` replays it: one fold of the epoch
/// counter, then a `γ` multiply per further close until the history is
/// zero. A candidate set no query or scan has touched since before
/// `epoch` then reads as one decayed eagerly at every close up to it;
/// how lazily a set was decayed is no decision.
pub fn caught_up(payload: &[u8], cluster: &ClusterFrame, epoch: u64) -> Vec<u8> {
    let gamma = STATS_DECAY;
    let mut out = payload.to_vec();
    let stamp_at = cluster.counters + DECAY_STAMP;
    let stamp = u64::from_le_bytes(out[stamp_at..stamp_at + 8].try_into().unwrap());
    if stamp < epoch {
        let (q, q_eff) = out[cluster.q..].split_at_mut(4 * cluster.ncand);
        for (q, hist) in q.chunks_exact_mut(4).zip(q_eff.chunks_exact_mut(8)) {
            let pending = u32::from_le_bytes((&*q).try_into().unwrap());
            let mut h = gamma * f64::from_le_bytes((&*hist).try_into().unwrap()) + pending as f64;
            for _ in 1..epoch - stamp {
                if h == 0.0 {
                    break;
                }
                h *= gamma;
            }
            q.copy_from_slice(&0u32.to_le_bytes());
            hist.copy_from_slice(&h.to_le_bytes());
        }
        out[stamp_at..stamp_at + 8].copy_from_slice(&epoch.to_le_bytes());
    }
    out.split_off(cluster.counters)
}

/// `(q_count, epoch_start, q_eff, weight)` of [`caught_up`]'s counters.
pub fn cluster_counters(counters: &[u8]) -> (u64, u64, f64, f64) {
    let word = |at: usize| u64::from_le_bytes(counters[at..at + 8].try_into().unwrap());
    (
        word(0),
        word(8),
        f64::from_bits(word(16)),
        f64::from_bits(word(24)),
    )
}

/// Each candidate's `(q, q_eff)` from [`caught_up`]'s counters.
pub fn candidate_counters(counters: &[u8], cluster: &ClusterFrame) -> Vec<(u32, f64)> {
    let q_at = cluster.q - cluster.counters;
    let q_eff_at = cluster.q_eff - cluster.counters;
    (0..cluster.ncand)
        .map(|ci| {
            let q = &counters[q_at + 4 * ci..q_at + 4 * ci + 4];
            let h = &counters[q_eff_at + 8 * ci..q_eff_at + 8 * ci + 8];
            (
                u32::from_le_bytes(q.try_into().unwrap()),
                f64::from_le_bytes(h.try_into().unwrap()),
            )
        })
        .collect()
}
