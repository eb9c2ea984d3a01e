//! Hostile bytes: a checkpoint or a log with a few bytes changed must
//! load or replay into a typed error or a valid index — never a panic,
//! never a failed invariant — and so must the mutations that write them.
//!
//! The checkpoint cases change 1–3 payload bytes of one checkpoint frame
//! and re-frame the file through the public frame codec, so the change
//! gets past the CRC and reaches `load`'s decoding and checks; the
//! reloaded index then runs three rounds of queries and a pass. The
//! WAL cases change one byte of one record's payload, keep the case only
//! if `WalRecord::decode` still accepts it, re-append the whole stream to
//! a fresh log and recover it; the recovered index then runs 120 queries.
//!
//! Tier-1 runs a few hundred seeded cases of each kind; the `#[ignore]`d
//! twins run the full counts. Random changes rarely build the defects
//! the load checks exist for, so each has a deterministic test below.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

use acx_core::{AdaptiveClusterIndex, IndexConfig, IndexError, Signature};
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_storage::frame::MAX_FRAME;
use acx_storage::{FlushPolicy, StorageScenario, StoreError, WalRecord};
use acx_testkit::ckpt::{self, Checkpoint, ClusterFrame};
use acx_testkit::{mem_wal, recover_log, replay_records, wal_bytes, TempPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 3;

/// The paper's platform, which clusters a few hundred objects; passes
/// run where the cases call them.
fn config() -> IndexConfig {
    IndexConfig {
        reorg_period: 0,
        ..IndexConfig::edbt2004(DIMS, StorageScenario::Memory)
    }
}

/// One round of the oscillating adversary: 60 point queries around one
/// corner of the domain — the other corner on odd rounds — then a pass.
fn run_round(index: &mut AdaptiveClusterIndex, round: u32) {
    let base: Scalar = if round.is_multiple_of(2) { 0.05 } else { 0.7 };
    for k in 0..60u32 {
        let point = (0..DIMS as u32)
            .map(|d| base + ((k * 7 + d * 3) % 20) as Scalar / 80.0)
            .collect();
        index.execute(&SpatialQuery::point_enclosing(point));
    }
    index.reorganize();
}

/// The checkpoint and the log of a 3-d index after ten rounds of the
/// adversary: several clusters, merges within the thrash window, and
/// structural records in the log. Built once per run.
fn fixture() -> &'static (Checkpoint, Vec<u8>) {
    static FIXTURE: OnceLock<(Checkpoint, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut index = AdaptiveClusterIndex::new(config()).unwrap();
        let wal = mem_wal(DIMS, FlushPolicy::PerRecord);
        index.attach_wal(wal).unwrap();
        let mut rng = StdRng::seed_from_u64(0xAD7E);
        for i in 0..300u32 {
            let (lo, hi): (Vec<Scalar>, Vec<Scalar>) = (0..DIMS)
                .map(|_| {
                    let a: Scalar = rng.gen_range(0.0..0.9);
                    (a, a + rng.gen_range(0.0..0.1))
                })
                .unzip();
            let rect = HyperRect::from_bounds(&lo, &hi).unwrap();
            index.insert(ObjectId(i), rect).unwrap();
        }
        for round in 0..10 {
            run_round(&mut index, round);
        }
        assert!(index.cluster_count() >= 3, "test premise: the index split");
        assert!(index.total_merges() > 0, "test premise: the index merged");
        (Checkpoint::of(&index), wal_bytes(&mut index))
    })
}

/// How one case ended: a typed error, a valid index, or — what the
/// suite exists to rule out — a panic or a broken invariant.
enum Outcome {
    Typed,
    Valid,
    Bad(String),
}

/// Runs `case` and sorts its ending: a typed error, a valid index (it
/// served its workload and holds its invariants), a failed invariant, or
/// a panic.
fn outcome(case: impl FnOnce() -> Result<Result<(), String>, IndexError>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(case)) {
        Ok(Err(_)) => Outcome::Typed,
        Ok(Ok(Ok(()))) => Outcome::Valid,
        Ok(Ok(Err(why))) => Outcome::Bad(format!("broken invariant: {why}")),
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
            Outcome::Bad(format!("panic: {}", why.unwrap_or_default()))
        }
    }
}

fn checkpoint_case(seed: u64, path: &Path) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checkpoint = fixture().0.clone();
    let target = rng.gen_range(0..checkpoint.frames.len());
    let payload = &mut checkpoint.frames[target];
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..payload.len());
        payload[at] ^= rng.gen_range(1..=255u8);
    }
    std::fs::write(path, checkpoint.bytes()).unwrap();
    outcome(|| {
        let mut index = AdaptiveClusterIndex::load(path, config())?;
        for round in 0..3 {
            run_round(&mut index, round);
        }
        Ok(index.check_invariants())
    })
}

/// `None` when the changed payload no longer decodes.
fn wal_case(seed: u64) -> Option<Outcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let records = replay_records(&fixture().1);
    let target = rng.gen_range(0..records.len());
    let mut payload = Vec::new();
    records[target].encode_into(&mut payload);
    let at = rng.gen_range(0..payload.len());
    payload[at] ^= rng.gen_range(1..=255u8);
    let changed = WalRecord::decode(&payload)?;
    let mut wal = mem_wal(DIMS, FlushPolicy::PerRecord);
    for (i, record) in records.iter().enumerate() {
        wal.append(if i == target { &changed } else { record })
            .unwrap();
    }
    let store = wal.into_store();
    Some(outcome(|| {
        let (mut index, _) =
            AdaptiveClusterIndex::recover(None, store, FlushPolicy::PerRecord, config())?;
        for round in 0..2 {
            run_round(&mut index, round);
        }
        Ok(index.check_invariants())
    }))
}

/// Tallies the outcomes and fails on any panic or broken invariant,
/// naming the first few cases.
fn tally(kind: &str, outcomes: impl Iterator<Item = (u64, Option<Outcome>)>) {
    let (mut skipped, mut typed, mut valid) = (0, 0, 0);
    let mut bad = Vec::new();
    for (seed, outcome) in outcomes {
        match outcome {
            None => skipped += 1,
            Some(Outcome::Typed) => typed += 1,
            Some(Outcome::Valid) => valid += 1,
            Some(Outcome::Bad(why)) => bad.push(format!("seed {seed}: {why}")),
        }
    }
    println!(
        "{kind}: {typed} typed errors, {valid} valid, {skipped} undecodable, {} bad",
        bad.len()
    );
    assert!(
        bad.is_empty(),
        "{kind}: {} cases panicked or broke an invariant, e.g. {:?}",
        bad.len(),
        &bad[..bad.len().min(5)]
    );
    assert!(
        typed > 0 && valid > 0,
        "{kind}: the changes should reach both endings"
    );
}

fn checkpoint_cases(tag: &str, cases: u64) {
    let path = TempPath::new(tag);
    tally(
        tag,
        (0..cases).map(|seed| (seed, Some(checkpoint_case(seed, &path)))),
    );
}

fn wal_cases(tag: &str, cases: u64) {
    tally(tag, (0..cases).map(|seed| (seed, wal_case(seed))));
}

#[test]
fn changed_checkpoint_bytes_load_into_an_error_or_a_valid_index() {
    checkpoint_cases("checkpoint", 300);
}

#[test]
#[ignore = "the full count, run with --include-ignored"]
fn changed_checkpoint_bytes_load_into_an_error_or_a_valid_index_full() {
    checkpoint_cases("checkpoint-full", 3_000);
}

#[test]
fn changed_log_bytes_replay_into_an_error_or_a_valid_index() {
    wal_cases("wal", 300);
}

#[test]
#[ignore = "the full count, run with --include-ignored"]
fn changed_log_bytes_replay_into_an_error_or_a_valid_index_full() {
    wal_cases("wal-full", 2_000);
}

// ---------------------------------------------------------------------
// One deterministic test per defect
// ---------------------------------------------------------------------

/// `[0.5, 1.5] × [0.6, 2.0]` in two dimensions: finite and ordered, so a
/// valid rectangle, but outside the unit domain every index covers.
fn outside_the_domain() -> HyperRect {
    HyperRect::from_bounds(&[0.5, 0.6], &[1.5, 2.0]).unwrap()
}

fn recover_2d(log: Vec<u8>) -> Result<(AdaptiveClusterIndex, u64), IndexError> {
    let (index, report) = recover_log(log, IndexConfig::memory(2))?;
    Ok((index, report.replayed_records))
}

#[test]
fn an_insert_outside_the_domain_fails_before_it_is_logged() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    let err = index.insert(ObjectId(2), outside_the_domain()).unwrap_err();
    assert!(matches!(err, IndexError::OutOfDomain(2)), "{err}");
    assert!(index.is_empty());
    let (recovered, replayed) = recover_2d(wal_bytes(&mut index)).unwrap();
    assert_eq!((replayed, recovered.len()), (0, 0));
}

#[test]
fn an_update_outside_the_domain_keeps_the_object() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    let inside = HyperRect::from_bounds(&[0.1, 0.1], &[0.2, 0.3]).unwrap();
    index.insert(ObjectId(2), inside.clone()).unwrap();
    let err = index.update(ObjectId(2), outside_the_domain()).unwrap_err();
    assert!(matches!(err, IndexError::OutOfDomain(2)), "{err}");
    assert_eq!(index.get(ObjectId(2)), Some(inside.clone()));
    index.check_invariants().unwrap();
    let (recovered, replayed) = recover_2d(wal_bytes(&mut index)).unwrap();
    assert_eq!(replayed, 1, "only the insert is logged");
    assert_eq!(recovered.get(ObjectId(2)), Some(inside));
}

#[test]
fn a_logged_insert_outside_the_domain_fails_recovery_with_a_typed_error() {
    let mut wal = mem_wal(2, FlushPolicy::PerRecord);
    wal.append(&WalRecord::Insert {
        id: 2,
        coords: outside_the_domain().to_flat(),
    })
    .unwrap();
    let mut store = wal.into_store();
    let err = recover_2d(store.read_durable().unwrap())
        .err()
        .expect("recovery must fail");
    assert!(
        matches!(err, IndexError::Recovery { record: 0, .. }),
        "{err}"
    );
}

/// The first cluster frame that is not the root's.
fn child_frame(checkpoint: &Checkpoint) -> ClusterFrame {
    checkpoint
        .clusters()
        .into_iter()
        .find(|c| c.parent != u32::MAX)
        .expect("test premise: a child cluster")
}

/// Loads the fixture's checkpoint after `patch` changed its frames.
fn load_patched(tag: &str, patch: impl FnOnce(&mut Checkpoint)) -> Result<(), IndexError> {
    let mut checkpoint = fixture().0.clone();
    patch(&mut checkpoint);
    load_bytes(tag, &checkpoint.bytes())
}

fn load_bytes(tag: &str, bytes: &[u8]) -> Result<(), IndexError> {
    let path = TempPath::new(tag);
    std::fs::write(&path, bytes).unwrap();
    AdaptiveClusterIndex::load(&path, config()).map(|_| ())
}

fn assert_corrupt(loaded: Result<(), IndexError>, why: &str) {
    match loaded {
        Err(IndexError::Store(StoreError::Corrupt(c))) => {
            assert!(c.reason.contains(why), "{c}")
        }
        Err(other) => panic!("expected a corrupt checkpoint ({why}), got {other}"),
        Ok(()) => panic!("a checkpoint that should fail with \"{why}\" loaded"),
    }
}

/// The pass clock would underflow at the next epoch close.
#[test]
fn a_merge_stamped_after_the_pass_clock_is_corrupt() {
    let loaded = load_patched("late-merge", |checkpoint| {
        let passes = checkpoint.clock(ckpt::REORGANIZATIONS);
        let (merges, stamps) = checkpoint.merge_passes();
        assert!(!stamps.is_empty(), "test premise: a recent merge");
        let at = stamps[0];
        checkpoint.frames[merges][at..at + 8].copy_from_slice(&(passes + 5).to_le_bytes());
    });
    assert_corrupt(loaded, "after the pass clock");
}

/// The screen's soundness argument assumes `p_s ≥ 0`.
#[test]
fn a_negative_or_non_finite_candidate_history_is_corrupt() {
    for value in [-1.0, f64::NAN, f64::INFINITY] {
        let loaded = load_patched("bad-history", |checkpoint| {
            let root = &checkpoint.clusters()[0];
            let payload = &mut checkpoint.frames[root.frame];
            let at = root.q_eff;
            payload[at..at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
        });
        assert_corrupt(loaded, "negative or not finite");
    }
}

/// Its members would vanish from every answer.
#[test]
fn a_cluster_that_is_its_own_parent_is_corrupt() {
    let loaded = load_patched("self-parent", |checkpoint| {
        let child = child_frame(checkpoint);
        let parent = &mut checkpoint.frames[child.frame][ckpt::PARENT..ckpt::PARENT + 4];
        parent.copy_from_slice(&child.slot.to_le_bytes());
    });
    assert_corrupt(loaded, "does not come before");
}

/// A merge would hand the parent members its signature rejects.
#[test]
fn a_child_wider_than_its_parent_is_corrupt() {
    let loaded = load_patched("wide-child", |checkpoint| {
        let child = child_frame(checkpoint);
        // Past the dimension count, 18 bytes per dimension: start and
        // end intervals as `lo f32, hi f32, open u8`. Widen both
        // intervals of a dimension the child does not specialize to
        // `[-1, 2]`: its candidates stay the same, its members stay
        // accepted, and no parent contains it.
        let sig = &mut checkpoint.frames[child.frame][child.signature];
        let d = (0..DIMS)
            .map(|d| 2 + 18 * d)
            .find(|&at| sig[at..at + 9] == sig[at + 9..at + 18])
            .expect("test premise: an unspecialized dimension");
        for at in [d, d + 9] {
            sig[at..at + 4].copy_from_slice(&(-1.0 as Scalar).to_le_bytes());
            sig[at + 4..at + 8].copy_from_slice(&(2.0 as Scalar).to_le_bytes());
        }
    });
    assert_corrupt(loaded, "not within its parent");
}

/// The root's signature is the domain from `new` on. A wider one
/// accepts what no insert would, and one as wide as `f32` allows
/// generates candidates of non-finite bounds.
#[test]
fn a_root_wider_than_the_domain_is_corrupt() {
    for (lo, hi) in [(-1.0, 2.0), (-3e38, 3e38)] {
        let loaded = load_patched("wide-root", |checkpoint| {
            let root = checkpoint.clusters()[0].clone();
            assert_eq!(root.parent, u32::MAX, "test premise: the root comes first");
            let sig = &mut checkpoint.frames[root.frame][root.signature];
            for at in (0..2 * DIMS).map(|k| 2 + 9 * k) {
                sig[at..at + 4].copy_from_slice(&(lo as Scalar).to_le_bytes());
                sig[at + 4..at + 8].copy_from_slice(&(hi as Scalar).to_le_bytes());
            }
        });
        assert_corrupt(loaded, "a root whose signature is not the domain");
    }
}

/// A member moved out of its cluster's signature, though still inside
/// the domain, would be missed by every query that prunes the cluster.
/// `load` reports it on the cluster's frame, by its id.
#[test]
fn a_member_outside_its_cluster_signature_is_corrupt() {
    let child = child_frame(&fixture().0);
    let mut moved_id = None;
    let loaded = load_patched("outside-signature", |checkpoint| {
        let payload = &checkpoint.frames[child.frame];
        let signature = Signature::from_bytes(&payload[child.signature.clone()]).unwrap();
        let members = checkpoint.members(&child);
        // A member inside the first member frame, past its first.
        let frame = &checkpoint.frames[child.member_frames.start];
        let in_frame = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
        assert!(in_frame > 2, "test premise: a child with members");
        let k = in_frame / 2;
        let (id, flat) = &members[k];
        // One coordinate moved onto the domain's quarter grid: the member
        // stays a rectangle inside the domain, outside the signature.
        let grid: [Scalar; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
        let (c, v) = (0..flat.len())
            .flat_map(|c| grid.map(|v| (c, v)))
            .find(|&(c, v)| {
                let mut moved = flat.clone();
                moved[c] = v;
                moved.chunks_exact(2).all(|p| p[0] <= p[1]) && !signature.accepts_flat(&moved)
            })
            .expect("test premise: a grid value outside the child's signature");
        let at = 5 + 4 * in_frame + 4 * (k * flat.len() + c);
        let frame = &mut checkpoint.frames[child.member_frames.start];
        frame[at..at + 4].copy_from_slice(&v.to_le_bytes());
        moved_id = Some(*id);
    });
    if let Err(IndexError::Store(StoreError::Corrupt(c))) = &loaded {
        assert_eq!(
            c.record, child.frame as u64,
            "reported on the cluster frame: {c}"
        );
    }
    let id = moved_id.unwrap();
    assert_corrupt(
        loaded,
        &format!("object #{id} violates its cluster's signature"),
    );
}

/// A child's frames moved ahead of its parent's: the parent it names
/// is not yet known.
#[test]
fn a_child_before_its_parent_is_corrupt() {
    let loaded = load_patched("child-first", |checkpoint| {
        let child = child_frame(checkpoint);
        // The child and its member frames.
        let frames = child.frame..child.member_frames.end;
        let moved: Vec<_> = checkpoint.frames.drain(frames).collect();
        // Right after the clocks, before the root.
        checkpoint.frames.splice(1..1, moved);
    });
    assert_corrupt(loaded, "does not come before");
}

/// A checkpoint of another format version is refused as such: the
/// record directory of version 2 as much as a future one.
#[test]
fn a_checkpoint_of_another_version_is_refused() {
    for version in [2u32, 99] {
        let mut checkpoint = fixture().0.clone();
        checkpoint.header[4..8].copy_from_slice(&version.to_le_bytes());
        match load_bytes("version", &checkpoint.bytes()) {
            Err(IndexError::Store(StoreError::UnsupportedVersion(v))) => assert_eq!(v, version),
            other => panic!("version {version}: {other:?}"),
        }
    }
}

/// Cut after any whole frame, the stream misses what follows — at the
/// latest its end frame.
#[test]
fn a_stream_cut_at_every_frame_boundary_is_corrupt() {
    let checkpoint = &fixture().0;
    for keep in 0..checkpoint.frames.len() {
        let cut = Checkpoint {
            header: checkpoint.header.clone(),
            frames: checkpoint.frames[..keep].to_vec(),
        };
        let loaded = load_bytes("cut", &cut.bytes());
        assert!(
            matches!(loaded, Err(IndexError::Store(StoreError::Corrupt(_)))),
            "{keep} frames kept: {loaded:?}"
        );
    }
    // The header alone, and less than one.
    assert_corrupt(load_bytes("header", &checkpoint.header), "ends before");
    assert_corrupt(
        load_bytes("short", &checkpoint.header[..7]),
        "header cut short",
    );
}

/// A header cut anywhere short of its end names no format at all: a
/// hard error, never an empty index.
#[test]
fn a_checkpoint_cut_inside_its_header_is_corrupt() {
    let header = &fixture().0.header;
    for cut in 1..header.len() {
        assert_corrupt(load_bytes("in-header", &header[..cut]), "header cut short");
    }
}

#[test]
fn an_unknown_tag_is_corrupt() {
    for frame in [0, 1, 3] {
        let loaded = load_patched("unknown-tag", |checkpoint| {
            checkpoint.frames[frame][0] = 0xEE;
        });
        assert_corrupt(loaded, "unknown tag 238");
    }
    let loaded = load_patched("misplaced-tag", |checkpoint| {
        let last = checkpoint.frames.len() - 1;
        checkpoint.frames.swap(last - 1, last);
    });
    assert_corrupt(loaded, "out of place");
}

#[test]
fn a_frame_over_max_frame_is_corrupt() {
    let checkpoint = &fixture().0;
    let mut bytes = Checkpoint {
        header: checkpoint.header.clone(),
        frames: checkpoint.frames[..2].to_vec(),
    }
    .bytes();
    bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend(std::iter::repeat_n(3, 64));
    assert_corrupt(load_bytes("oversized", &bytes), "outside");
}
