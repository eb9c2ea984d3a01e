//! Hostile bytes: a checkpoint or a log with a few bytes changed must
//! load or replay into a typed error or a valid index — never a panic,
//! never a failed invariant — and so must the mutations that write them.
//!
//! The checkpoint cases change 1–3 bytes of the META record or of one
//! cluster record and re-frame the file through `FileStore::save`, so the
//! change gets past the CRC and reaches the decoder and `load`'s checks;
//! the reloaded index then runs three rounds of queries and a pass. The
//! WAL cases change one byte of one record's payload, keep the case only
//! if `WalRecord::decode` still accepts it, re-append the whole stream to
//! a fresh log and recover it; the recovered index then runs 120 queries.
//!
//! Tier-1 runs a few hundred seeded cases of each kind; the `#[ignore]`d
//! twins run the full counts. Random changes rarely build the defects
//! the load checks exist for, so each has a deterministic test below.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use acx_core::{AdaptiveClusterIndex, IndexConfig, IndexError};
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_storage::{
    ClusterRecord, FileStore, FlushPolicy, MemBacking, StorageScenario, StoreError, Wal, WalRecord,
};
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

fn mem_wal() -> Wal {
    Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, DIMS).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("acx-hostile-{tag}-{}.ckpt", std::process::id()))
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

/// The records of a checkpoint and the log of a 3-d index after ten
/// rounds of the adversary: several clusters, merges within the thrash
/// window, and structural records in the log. Built once per run.
fn fixture() -> &'static (Vec<ClusterRecord>, Vec<u8>) {
    static FIXTURE: OnceLock<(Vec<ClusterRecord>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut index = AdaptiveClusterIndex::new(config()).unwrap();
        index.attach_wal(mem_wal()).unwrap();
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
        let path = temp_path("fixture");
        index.save(&path).unwrap();
        let (_, records) = FileStore::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut store = index.detach_wal().unwrap().into_store();
        (records, store.read_durable().unwrap())
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

/// Changes 1–3 bytes of a record as the file lays it out: the
/// signature blob, then the ids, then the coordinates.
fn mutate_record(record: &mut ClusterRecord, rng: &mut StdRng) {
    let mut bytes = record.signature.clone();
    bytes.extend(record.ids.iter().flat_map(|id| id.to_le_bytes()));
    bytes.extend(record.coords.iter().flat_map(|c| c.to_le_bytes()));
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= rng.gen_range(1..=255u8);
    }
    let (signature, rest) = bytes.split_at(record.signature.len());
    let (ids, coords) = rest.split_at(4 * record.ids.len());
    record.signature = signature.to_vec();
    record.ids = ids
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    record.coords = coords
        .chunks_exact(4)
        .map(|b| Scalar::from_le_bytes(b.try_into().unwrap()))
        .collect();
}

fn checkpoint_case(seed: u64, path: &Path) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = fixture().0.clone();
    let target = rng.gen_range(0..records.len());
    mutate_record(&mut records[target], &mut rng);
    FileStore::save(path, DIMS, &records).unwrap();
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
    let mut log = MemBacking::from_bytes(fixture().1.clone());
    let records = Wal::replay(&mut log).unwrap().records;
    let target = rng.gen_range(0..records.len());
    let mut payload = Vec::new();
    records[target].encode_into(&mut payload);
    let at = rng.gen_range(0..payload.len());
    payload[at] ^= rng.gen_range(1..=255u8);
    let changed = WalRecord::decode(&payload)?;
    let mut wal = mem_wal();
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
    let path = temp_path(tag);
    tally(
        tag,
        (0..cases).map(|seed| (seed, Some(checkpoint_case(seed, &path)))),
    );
    let _ = std::fs::remove_file(&path);
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
    let (index, report) = AdaptiveClusterIndex::recover(
        None,
        Box::new(MemBacking::from_bytes(log)),
        FlushPolicy::PerRecord,
        IndexConfig::memory(2),
    )?;
    Ok((index, report.replayed_records))
}

fn log_of(index: &mut AdaptiveClusterIndex) -> Vec<u8> {
    let mut store = index.detach_wal().unwrap().into_store();
    store.read_durable().unwrap()
}

#[test]
fn an_insert_outside_the_domain_fails_before_it_is_logged() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index
        .attach_wal(Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 2).unwrap())
        .unwrap();
    let err = index.insert(ObjectId(2), outside_the_domain()).unwrap_err();
    assert!(matches!(err, IndexError::OutOfDomain(2)), "{err}");
    assert!(index.is_empty());
    let (recovered, replayed) = recover_2d(log_of(&mut index)).unwrap();
    assert_eq!((replayed, recovered.len()), (0, 0));
}

#[test]
fn an_update_outside_the_domain_keeps_the_object() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index
        .attach_wal(Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 2).unwrap())
        .unwrap();
    let inside = HyperRect::from_bounds(&[0.1, 0.1], &[0.2, 0.3]).unwrap();
    index.insert(ObjectId(2), inside.clone()).unwrap();
    let err = index.update(ObjectId(2), outside_the_domain()).unwrap_err();
    assert!(matches!(err, IndexError::OutOfDomain(2)), "{err}");
    assert_eq!(index.get(ObjectId(2)), Some(inside.clone()));
    index.check_invariants().unwrap();
    let (recovered, replayed) = recover_2d(log_of(&mut index)).unwrap();
    assert_eq!(replayed, 1, "only the insert is logged");
    assert_eq!(recovered.get(ObjectId(2)), Some(inside));
}

#[test]
fn a_logged_insert_outside_the_domain_fails_recovery_with_a_typed_error() {
    let mut wal = Wal::create(Box::new(MemBacking::new()), FlushPolicy::PerRecord, 2).unwrap();
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

/// Offsets into the fixture's META record: after the magic and 13
/// clocks, per cluster `slot u32, q_count u64, epoch_start u64, q_eff
/// f64, weight f64, stamp u64, n_hi u32, ncand u32`, the `q` and then the
/// `q_eff` column; then the free list; then the recent merges as
/// `(len u32, signature, pass u64)`.
struct MetaLayout {
    /// Each cluster's slot and where its candidate `q_eff` column starts.
    clusters: Vec<(u32, usize)>,
    /// Where each recent merge's pass stamp lies.
    merge_passes: Vec<usize>,
}

/// Offset of `reorganizations`, the fifth clock.
const REORGANIZATIONS: usize = 8 + 4 * 8;

fn meta_layout(blob: &[u8]) -> MetaLayout {
    let u32_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
    let mut at = 8 + 13 * 8;
    let count = u32_at(at);
    at += 4;
    let mut clusters = Vec::new();
    for _ in 0..count {
        let slot = u32_at(at);
        at += 4 + 8 + 8 + 8 + 8 + 8 + 4;
        let ncand = u32_at(at) as usize;
        at += 4 + 4 * ncand;
        clusters.push((slot, at));
        at += 8 * ncand;
    }
    at += 4 + 4 * u32_at(at) as usize;
    let merges = u32_at(at);
    at += 4;
    let mut merge_passes = Vec::new();
    for _ in 0..merges {
        at += 4 + u32_at(at) as usize;
        merge_passes.push(at);
        at += 8;
    }
    assert_eq!(at, blob.len(), "META layout");
    MetaLayout {
        clusters,
        merge_passes,
    }
}

/// The index and slot of a cluster record that is not the root's.
fn child_record(records: &[ClusterRecord]) -> (usize, u32) {
    let layout = meta_layout(&records[0].signature);
    let i = (1..records.len())
        .find(|&i| records[i].signature[..4] != u32::MAX.to_le_bytes())
        .expect("test premise: a child cluster");
    (i, layout.clusters[i - 1].0)
}

/// Loads the fixture's checkpoint after `patch` changed its records.
fn load_patched(tag: &str, patch: impl FnOnce(&mut [ClusterRecord])) -> Result<(), IndexError> {
    let mut records = fixture().0.clone();
    patch(&mut records);
    let path = temp_path(tag);
    FileStore::save(&path, DIMS, &records).unwrap();
    let loaded = AdaptiveClusterIndex::load(&path, config());
    std::fs::remove_file(&path).unwrap();
    loaded.map(|_| ())
}

fn assert_corrupt(loaded: Result<(), IndexError>, why: &str) {
    match loaded {
        Err(IndexError::Store(StoreError::Corrupt(detail))) => {
            assert!(detail.contains(why), "{detail}")
        }
        Err(other) => panic!("expected a corrupt checkpoint ({why}), got {other}"),
        Ok(()) => panic!("a checkpoint that should fail with \"{why}\" loaded"),
    }
}

/// The pass clock would underflow at the next epoch close.
#[test]
fn a_merge_stamped_after_the_pass_clock_is_corrupt() {
    let loaded = load_patched("late-merge", |records| {
        let blob = &mut records[0].signature;
        let at = *meta_layout(blob)
            .merge_passes
            .first()
            .expect("test premise: a recent merge");
        let passes = &blob[REORGANIZATIONS..REORGANIZATIONS + 8];
        let passes = u64::from_le_bytes(passes.try_into().unwrap());
        blob[at..at + 8].copy_from_slice(&(passes + 5).to_le_bytes());
    });
    assert_corrupt(loaded, "after the pass clock");
}

/// The screen's soundness argument assumes `p_s ≥ 0`.
#[test]
fn a_negative_or_non_finite_candidate_history_is_corrupt() {
    for value in [-1.0, f64::NAN, f64::INFINITY] {
        let loaded = load_patched("bad-history", |records| {
            let blob = &mut records[0].signature;
            let (_, at) = meta_layout(blob).clusters[0];
            blob[at..at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
        });
        assert_corrupt(loaded, "negative or not finite");
    }
}

/// Its members would vanish from every answer.
#[test]
fn a_cluster_that_is_its_own_parent_is_corrupt() {
    let loaded = load_patched("self-parent", |records| {
        let (i, slot) = child_record(records);
        records[i].signature[..4].copy_from_slice(&slot.to_le_bytes());
    });
    assert_corrupt(loaded, "reachable from the root");
}

/// A merge would hand the parent members its signature rejects.
#[test]
fn a_child_wider_than_its_parent_is_corrupt() {
    let loaded = load_patched("wide-child", |records| {
        let (i, _) = child_record(records);
        // Past the parent field and the dimension count, 18 bytes per
        // dimension: start and end intervals as `lo f32, hi f32, open u8`.
        // Widen both intervals of a dimension the child does not
        // specialize to `[-1, 2]`: its candidates stay the same, its
        // members stay accepted, and no parent contains it.
        let sig = &mut records[i].signature;
        let d = (0..DIMS)
            .map(|d| 6 + 18 * d)
            .find(|&at| sig[at..at + 9] == sig[at + 9..at + 18])
            .expect("test premise: an unspecialized dimension");
        for at in [d, d + 9] {
            sig[at..at + 4].copy_from_slice(&(-1.0 as Scalar).to_le_bytes());
            sig[at + 4..at + 8].copy_from_slice(&(2.0 as Scalar).to_le_bytes());
        }
    });
    assert_corrupt(loaded, "not within its parent");
}
