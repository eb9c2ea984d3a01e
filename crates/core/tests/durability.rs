//! Durability: write-ahead logging, fault injection, and crash-recovery
//! equivalence.
//!
//! The contract under test: every structural mutation is logged before
//! it is applied, so for ANY crash point — any byte prefix of the log —
//! [`AdaptiveClusterIndex::recover`] truncates the torn tail and
//! rebuilds an index that is decision- and answer-identical to one that
//! executed the surviving operation prefix directly. Faults injected by
//! the testkit's deterministic `FaultInjector` (torn writes, ENOSPC, flush
//! failures, crashes) must surface as typed errors without corrupting
//! the in-memory index.
//!
//! The streams are a few hundred 2-d and 3-d objects; every index that
//! is expected to log structural records runs on the paper's platform
//! (`paper`), which splits and merges at that scale.

use std::collections::{HashMap, HashSet};

use acx_core::{AdaptiveClusterIndex, IndexConfig, IndexError};
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_storage::{BackingStore, FlushPolicy, Wal, WalRecord};
use acx_testkit::ckpt::Checkpoint;
use acx_testkit::model::{check, Model};
use acx_testkit::{
    checkpoint_bytes, mem_wal, paper, recover_log, rect_of, replay_records, sorted, wal_bytes,
    FaultInjector, FaultPlan, MemBacking, TempPath,
};
use proptest::prelude::*;

fn config_2d() -> IndexConfig {
    let mut config = paper(2);
    config.reorg_period = 17; // trigger automatic reorgs mid-stream
    config.min_epoch_queries = 5;
    config
}

// ---------------------------------------------------------------------
// Operation streams (shared by the proptest harnesses)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Vec<(Scalar, Scalar)>),
    Remove(u32),
    Update(u32, Vec<(Scalar, Scalar)>),
    Query(Vec<(Scalar, Scalar)>),
}

fn pair() -> impl Strategy<Value = (Scalar, Scalar)> {
    (0.0f32..=1.0, 0.0f32..=1.0).prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
}

fn op(dims: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..48, prop::collection::vec(pair(), dims)).prop_map(|(id, ps)| Op::Insert(id, ps)),
        2 => (0u32..48).prop_map(Op::Remove),
        2 => (0u32..48, prop::collection::vec(pair(), dims)).prop_map(|(id, ps)| Op::Update(id, ps)),
        3 => prop::collection::vec(pair(), dims).prop_map(Op::Query),
    ]
}

/// Runs an op stream against `index`, ignoring rejected mutations
/// (duplicate inserts, unknown removes — the stream is arbitrary).
fn run_ops(index: &mut AdaptiveClusterIndex, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(id, ps) => {
                let _ = index.insert(ObjectId(*id), rect_of(ps));
            }
            Op::Remove(id) => {
                let _ = index.remove(ObjectId(*id));
            }
            Op::Update(id, ps) => {
                let _ = index.update(ObjectId(*id), rect_of(ps));
            }
            Op::Query(ps) => {
                index.execute(&SpatialQuery::intersection(rect_of(ps)));
            }
        }
    }
}

/// [`run_ops`] on the model: the same calls, the same rejections.
fn run_model_ops(model: &mut Model, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(id, ps) => {
                let _ = model.insert(ObjectId(*id), rect_of(ps));
            }
            Op::Remove(id) => {
                let _ = model.remove(ObjectId(*id));
            }
            Op::Update(id, ps) => {
                let _ = model.update(ObjectId(*id), rect_of(ps));
            }
            Op::Query(ps) => {
                model.execute(&SpatialQuery::intersection(rect_of(ps)));
            }
        }
    }
}

/// Populates `index` (ids from 1 000 up, clear of the op streams') and
/// alternates a point-query hotspot between two corners of the domain
/// until a merge of the abandoned corner's clusters has freed a cluster
/// slot and a later materialization has reused it, with a candidate set
/// generated into the recycled slot, and some cluster lists its children
/// out of slot order. Returns the objects inserted and the queries
/// executed, in order.
fn churn_until_slot_reuse(
    index: &mut AdaptiveClusterIndex,
) -> (Vec<(ObjectId, HyperRect)>, Vec<SpatialQuery>) {
    let live = |index: &AdaptiveClusterIndex| -> HashSet<u32> {
        index.snapshots().iter().map(|s| s.id).collect()
    };
    let mut objects = Vec::new();
    for i in 0..600u32 {
        let x = (i % 25) as Scalar / 25.0;
        let y = (i / 25) as Scalar / 24.0;
        let rect = HyperRect::from_bounds(&[x, y], &[x + 0.03, y + 0.03]).unwrap();
        index.insert(ObjectId(1000 + i), rect.clone()).unwrap();
        objects.push((ObjectId(1000 + i), rect));
    }
    let mut queries = Vec::new();
    let (mut before, mut freed, mut reused) = (live(index), HashSet::new(), false);
    for phase in 0..40u32 {
        let lo: Scalar = if phase % 2 == 0 { 0.05 } else { 0.85 };
        for k in 0..68u32 {
            let p = vec![lo + (k % 5) as Scalar / 50.0, lo + (k / 5 % 5) as Scalar / 50.0];
            let q = SpatialQuery::point_enclosing(p);
            index.execute(&q);
            queries.push(q);
            let now = live(index);
            freed.extend(before.difference(&now).copied());
            reused |= now.iter().any(|slot| freed.contains(slot));
            before = now;
        }
        if reused && siblings_out_of_slot_order(index) {
            return (objects, queries);
        }
    }
    panic!("the alternating hotspot never reused a freed cluster slot");
}

/// Whether some cluster lists a child after a sibling with a higher
/// slot. Depth-first order pops children last-first, so a sibling list
/// in creation order reads descending in `snapshots()`.
fn siblings_out_of_slot_order(index: &AdaptiveClusterIndex) -> bool {
    let snapshots = index.snapshots();
    snapshots.iter().any(|s| {
        let siblings: Vec<u32> = snapshots
            .iter()
            .filter(|t| t.parent == s.parent && t.parent.is_some())
            .map(|t| t.id)
            .collect();
        siblings.windows(2).any(|w| w[0] < w[1])
    })
}

/// The membership ground truth of a surviving WAL prefix: membership
/// records applied to a flat map, by WAL semantics alone — no index
/// machinery involved, so comparing the recovered index against it is
/// non-circular.
fn membership_model(
    base: &HashMap<u32, HyperRect>,
    records: &[WalRecord],
) -> HashMap<u32, HyperRect> {
    let mut model = base.clone();
    for record in records {
        match record {
            WalRecord::Insert { id, coords } | WalRecord::Update { id, coords } => {
                model.insert(*id, HyperRect::from_flat(coords).unwrap());
            }
            WalRecord::Remove { id } => {
                model.remove(id);
            }
            WalRecord::Merge { .. } | WalRecord::Materialize { .. } | WalRecord::EpochClose => {}
        }
    }
    model
}

fn assert_matches_model(
    index: &AdaptiveClusterIndex,
    model: &HashMap<u32, HyperRect>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.len(), model.len());
    for (&id, rect) in model {
        prop_assert_eq!(index.get(ObjectId(id)).as_ref(), Some(rect));
    }
    // Probe queries must answer exactly per the model.
    for probe in [
        SpatialQuery::point_enclosing(vec![0.5, 0.5]),
        SpatialQuery::intersection(HyperRect::from_bounds(&[0.0, 0.0], &[0.3, 0.9]).unwrap()),
        SpatialQuery::containment(HyperRect::from_bounds(&[0.2, 0.1], &[0.9, 0.8]).unwrap()),
    ] {
        let mut got: Vec<u32> = index
            .query(&probe)
            .matches
            .iter()
            .map(|o| o.raw())
            .collect();
        got.sort_unstable();
        let mut want: Vec<u32> = model
            .iter()
            .filter(|(_, r)| probe.matches_rect(r))
            .map(|(&id, _)| id)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: run a random op stream with a WAL
    /// attached, then crash at an arbitrary byte offset. Recovery from
    /// the prefix must (1) succeed with valid invariants, (2) agree
    /// exactly with the membership model of the surviving records, and
    /// (3) be deterministic — a second recovery from the same bytes
    /// yields bit-identical cluster snapshots.
    #[test]
    fn recovery_from_any_crash_point_matches_surviving_prefix(
        ops in prop::collection::vec(op(2), 1..120),
        cut in 0.0f64..=1.0,
    ) {
        let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
        index.attach_wal(mem_wal(2, FlushPolicy::PerRecord)).unwrap();
        run_ops(&mut index, &ops);
        prop_assert!(index.wal_failure().is_none());
        let bytes = wal_bytes(&mut index);

        let k = (cut * bytes.len() as f64) as usize;
        let prefix = &bytes[..k.min(bytes.len())];
        let records = replay_records(prefix);
        let model = membership_model(&HashMap::new(), &records);

        let (recovered, report) = recover_log(prefix.to_vec(), config_2d()).unwrap();
        prop_assert_eq!(report.replayed_records, records.len() as u64);
        recovered.check_invariants().map_err(TestCaseError::fail)?;
        assert_matches_model(&recovered, &model)?;

        let (again, _) = recover_log(prefix.to_vec(), config_2d()).unwrap();
        prop_assert_eq!(again.snapshots(), recovered.snapshots());
        prop_assert_eq!(again.reorganizations(), recovered.reorganizations());
        prop_assert_eq!(again.total_merges(), recovered.total_merges());
        prop_assert_eq!(again.total_splits(), recovered.total_splits());
    }

    /// Same property across a checkpoint: ops, checkpoint (which
    /// truncates the log), more ops, crash at an arbitrary offset of
    /// the suffix. Recovery = checkpoint + surviving suffix.
    #[test]
    fn recovery_replays_wal_suffix_onto_checkpoint(
        before in prop::collection::vec(op(2), 1..60),
        after in prop::collection::vec(op(2), 1..60),
        cut in 0.0f64..=1.0,
    ) {
        let path = TempPath::new("ckpt");
        let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
        index.attach_wal(mem_wal(2, FlushPolicy::PerRecord)).unwrap();
        run_ops(&mut index, &before);
        index.checkpoint(&path).unwrap();
        let base: HashMap<u32, HyperRect> = index
            .object_ids()
            .map(|id| (id.raw(), index.get(id).unwrap()))
            .collect();
        run_ops(&mut index, &after);
        prop_assert!(index.wal_failure().is_none());
        let bytes = wal_bytes(&mut index);

        let k = (cut * bytes.len() as f64) as usize;
        let prefix = &bytes[..k.min(bytes.len())];
        let records = replay_records(prefix);
        let model = membership_model(&base, &records);

        let result = AdaptiveClusterIndex::recover(
            Some(&path),
            Box::new(MemBacking::from_bytes(prefix.to_vec())),
            FlushPolicy::PerRecord,
            config_2d(),
        );
        let (recovered, report) = result.unwrap();
        prop_assert_eq!(report.replayed_records, records.len() as u64);
        recovered.check_invariants().map_err(TestCaseError::fail)?;
        assert_matches_model(&recovered, &model)?;
    }

    /// A save/load round-trip preserves the `ClusterSnapshot`s
    /// exactly, in depth-first order and statistics included, queries
    /// match the same objects in the same order, and original and
    /// reloaded index make the model's decisions on the next pass — the
    /// state before and after it is the model's, every counter
    /// included.
    ///
    /// The saved index has freed a cluster slot in a merge and reused it
    /// for a later materialization (`churn_until_slot_reuse`), while a
    /// reload builds every slot's candidate set at once — so the identity
    /// below also compares a set generated into a recycled slot against
    /// one the load generated.
    #[test]
    fn checkpoint_roundtrip_is_bit_identical_across_toggles(
        ops in prop::collection::vec(op(2), 20..100),
    ) {
        let mut config = config_2d();
        config.confidence_z = 0.0; // act on any positive benefit: maximal churn
        let mut index = AdaptiveClusterIndex::new(config.clone()).unwrap();
        let mut model = Model::new(config.clone());
        let (objects, queries) = churn_until_slot_reuse(&mut index);
        for (id, rect) in objects {
            model.insert(id, rect).unwrap();
        }
        for q in &queries {
            model.execute(q);
        }
        run_ops(&mut index, &ops);
        run_model_ops(&mut model, &ops);
        prop_assert!(index.total_merges() > 0 && index.total_splits() > 0);

        let path = TempPath::new("matrix");
        index.save(&path).unwrap();
        let mut reloaded = AdaptiveClusterIndex::load(&path, config).unwrap();
        reloaded.check_invariants().map_err(TestCaseError::fail)?;

        prop_assert_eq!(reloaded.snapshots(), index.snapshots());
        prop_assert_eq!(reloaded.total_queries(), index.total_queries());
        prop_assert_eq!(reloaded.reorganizations(), index.reorganizations());
        prop_assert_eq!(reloaded.verify_fraction(), index.verify_fraction());
        for side in [&index, &reloaded] {
            check(side, &model).map_err(TestCaseError::fail)?;
        }

        // Decision equivalence: the same subsequent traffic must
        // produce the same answers and the same next pass.
        for probe in [
            SpatialQuery::point_enclosing(vec![0.4, 0.6]),
            SpatialQuery::intersection(HyperRect::from_bounds(&[0.1, 0.2], &[0.5, 0.9]).unwrap()),
        ] {
            let (a, b) = (index.execute(&probe), reloaded.execute(&probe));
            let answer = model.execute(&probe);
            prop_assert_eq!(a.metrics.stats, b.metrics.stats);
            prop_assert_eq!(a.metrics.stats, answer.stats);
            prop_assert_eq!(sorted(a.matches.clone()), answer.matches);
            prop_assert_eq!(a.matches, b.matches);
        }
        let report = model.reorganize();
        prop_assert_eq!(index.reorganize(), report);
        prop_assert_eq!(reloaded.reorganize(), report);
        prop_assert_eq!(reloaded.snapshots(), index.snapshots());
        for side in [&index, &reloaded] {
            check(side, &model).map_err(TestCaseError::fail)?;
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Inserts `n` deterministic rectangles, stopping at the first error.
fn insert_until_failure(index: &mut AdaptiveClusterIndex, n: u32) -> (u32, Option<IndexError>) {
    for i in 0..n {
        let t = f64::from(i % 97) / 97.0;
        let lo = [t as Scalar * 0.8, (1.0 - t as Scalar) * 0.7];
        let hi = [lo[0] + 0.1, lo[1] + 0.1];
        let rect = HyperRect::from_bounds(&lo, &hi).unwrap();
        if let Err(e) = index.insert(ObjectId(i), rect) {
            return (i, Some(e));
        }
    }
    (n, None)
}

#[test]
fn crash_fault_preserves_logged_prefix_and_recovers() {
    // Pristine run for the reference byte image.
    let mut pristine = AdaptiveClusterIndex::new(config_2d()).unwrap();
    pristine
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    let (_, err) = insert_until_failure(&mut pristine, 40);
    assert!(err.is_none());
    let reference = wal_bytes(&mut pristine);

    // Same stream over a medium that crashes at the 25th append (the
    // header is append #1, so record appends start at #2).
    let injector = FaultInjector::new(FaultPlan::crash_after_appends(25));
    let wal = Wal::create(Box::new(injector.clone()), FlushPolicy::PerRecord, 2).unwrap();
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index.attach_wal(wal).unwrap();
    let (applied, err) = insert_until_failure(&mut index, 40);
    let err = err.expect("the crash must surface as an insert error");
    assert!(matches!(err, IndexError::Wal(_)), "got {err:?}");
    // The failed insert was not applied: log-then-apply means a crash
    // loses the record, never applies an unlogged mutation.
    assert_eq!(index.len(), applied as usize);
    index.check_invariants().unwrap();

    let survived = injector.surviving();
    // Determinism across media: what survived is a byte prefix of the
    // pristine image.
    assert!(survived.len() <= reference.len());
    assert_eq!(&reference[..survived.len()], &survived[..]);

    let (recovered, report) = recover_log(survived, config_2d()).unwrap();
    assert_eq!(report.replayed_records, applied as u64);
    assert_eq!(recovered.len(), applied as usize);
    recovered.check_invariants().unwrap();
}

#[test]
fn torn_write_is_truncated_at_first_bad_checksum() {
    let injector = FaultInjector::new(FaultPlan::torn_write_at(10, 5));
    let wal = Wal::create(Box::new(injector.clone()), FlushPolicy::PerRecord, 2).unwrap();
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index.attach_wal(wal).unwrap();
    let (applied, err) = insert_until_failure(&mut index, 40);
    assert!(err.is_some());
    let survived = injector.surviving();

    let (recovered, report) = recover_log(survived, config_2d()).unwrap();
    let torn = report
        .torn_tail
        .expect("the torn half-record must be detected");
    assert!(torn.dropped_bytes > 0);
    // Records before the tear replay; the torn one is gone.
    assert_eq!(report.replayed_records, applied as u64);
    assert_eq!(recovered.len(), applied as usize);
    recovered.check_invariants().unwrap();
}

#[test]
fn enospc_fails_the_mutation_and_poisons_the_log() {
    let injector = FaultInjector::new(FaultPlan::enospc_at(5));
    let wal = Wal::create(Box::new(injector), FlushPolicy::PerRecord, 2).unwrap();
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index.attach_wal(wal).unwrap();
    let (applied, err) = insert_until_failure(&mut index, 40);
    match err.expect("ENOSPC must surface") {
        IndexError::Wal(w) => {
            assert_eq!(w.io_kind(), Some(std::io::ErrorKind::StorageFull));
        }
        other => panic!("expected a wal error, got {other:?}"),
    }
    assert_eq!(index.len(), applied as usize);
    index.check_invariants().unwrap();
    // The log is poisoned: later mutations must keep failing instead of
    // silently writing past a gap.
    let rect = HyperRect::from_bounds(&[0.1, 0.1], &[0.2, 0.2]).unwrap();
    let again = index.insert(ObjectId(9999), rect).unwrap_err();
    assert!(matches!(again, IndexError::Wal(_)), "got {again:?}");
    assert_eq!(index.len(), applied as usize);
}

#[test]
fn flush_failure_surfaces_under_per_record_policy() {
    let injector = FaultInjector::new(FaultPlan::flush_fail_at(3));
    let wal = Wal::create(Box::new(injector), FlushPolicy::PerRecord, 2).unwrap();
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index.attach_wal(wal).unwrap();
    let (applied, err) = insert_until_failure(&mut index, 40);
    assert!(matches!(err, Some(IndexError::Wal(_))), "got {err:?}");
    assert_eq!(index.len(), applied as usize);
    index.check_invariants().unwrap();
}

#[test]
fn a_failed_behind_sync_fails_the_mutation_at_the_next_barrier() {
    // Flush #1 is the header's. The barrier after the fourth insert is
    // #2: it returns, and its sync fails behind the caller.
    let injector = FaultInjector::new(FaultPlan::flush_fail_at(2));
    let wal = Wal::create(Box::new(injector), FlushPolicy::PerBatch(4), 2).unwrap();
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index.attach_wal(wal).unwrap();
    let (applied, err) = insert_until_failure(&mut index, 7);
    assert!(
        err.is_none(),
        "the barrier whose sync fails returned: {err:?}"
    );
    assert_eq!(applied, 7);

    // The eighth insert's append is the next barrier: it fails, and
    // nothing moved.
    let before = index.snapshots();
    let rect = HyperRect::from_bounds(&[0.4, 0.4], &[0.5, 0.5]).unwrap();
    let err = index.insert(ObjectId(7), rect).unwrap_err();
    assert!(matches!(err, IndexError::Wal(_)), "got {err:?}");
    assert!(!index.contains(ObjectId(7)));
    assert_eq!(index.len(), 7);
    assert_eq!(index.snapshots(), before);
    index.check_invariants().unwrap();
    // The log is poisoned: later mutations keep failing.
    let again = index.remove(ObjectId(0)).unwrap_err();
    assert!(matches!(again, IndexError::Wal(_)), "got {again:?}");
    assert!(index.contains(ObjectId(0)));
}

#[test]
fn short_reads_do_not_produce_a_broken_index() {
    // Write a healthy log, then recover through a medium that drops
    // tail bytes from every read: recovery sees a shorter prefix but
    // must still come back valid.
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    let (applied, err) = insert_until_failure(&mut index, 30);
    assert!(err.is_none());
    let bytes = wal_bytes(&mut index);

    let mut injector = FaultInjector::new(FaultPlan::none().with_short_read(7));
    injector.append(&bytes).unwrap();
    injector.flush().unwrap();
    let (recovered, report) = AdaptiveClusterIndex::recover(
        None,
        Box::new(injector),
        FlushPolicy::PerRecord,
        config_2d(),
    )
    .unwrap();
    assert!(report.replayed_records < applied as u64);
    assert!(report.torn_tail.is_some());
    recovered.check_invariants().unwrap();
}

#[test]
fn wal_failure_inside_a_pass_degrades_gracefully() {
    use acx_workloads::{AdaptiveScenario, OscillatingHeat, UniformWorkload, WorkloadConfig};

    let dims = 3;
    let cfg = WorkloadConfig::new(dims, 600, 0x51AB);
    let objects = UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects();
    let mut scenario = OscillatingHeat::new(&cfg, 120, 0.3, 0.08);
    let mut config = paper(dims);
    config.reorg_period = 0;
    config.confidence_z = 0.0;

    // Crash the medium well after the membership stream, so the fault
    // lands on a structural record logged mid-pass.
    let injector = FaultInjector::new(FaultPlan::crash_after_appends(objects.len() as u64 + 3));
    let wal = Wal::create(Box::new(injector.clone()), FlushPolicy::PerRecord, dims).unwrap();
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    index.attach_wal(wal).unwrap();
    for (i, rect) in objects.iter().enumerate() {
        index.insert(ObjectId(i as u32), rect.clone()).unwrap();
    }
    let mut failed_passes = 0;
    for _ in 0..6 {
        for _ in 0..60 {
            let q = scenario.next_query();
            index.execute(&q);
        }
        index.reorganize();
        if index.wal_failure().is_some() {
            failed_passes += 1;
        }
    }
    // The pass swallowed the failure, surfaced it, and the index stayed
    // fully usable.
    assert!(failed_passes > 0, "the crash must land inside a pass");
    assert!(index.wal_failure().is_some());
    index.check_invariants().unwrap();
    assert!(
        index.total_splits() > 0,
        "the workload must force structure"
    );

    // What reached the medium before the crash still recovers.
    let survived = injector.surviving();
    let (recovered, _) = recover_log(survived, paper(dims)).unwrap();
    recovered.check_invariants().unwrap();
}

// ---------------------------------------------------------------------
// Checkpoint / WAL coupling
// ---------------------------------------------------------------------

#[test]
fn crash_between_checkpoint_save_and_wal_reset_does_not_double_apply() {
    // The crash window checkpoint() must survive: the checkpoint file
    // is durably on disk, but the crash hit before the WAL was
    // truncated, so the log still holds every record the checkpoint
    // already absorbed. Recovery must discard those records via the
    // checkpoint-id stamp instead of replaying duplicates.
    let path = TempPath::new("ckpt-window");
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    let (applied, err) = insert_until_failure(&mut index, 30);
    assert!(err.is_none());
    // The log image the instant before checkpoint() would truncate it:
    // stamped with checkpoint id 0, holding every mutation.
    let pre_checkpoint_log = wal_bytes(&mut index);
    let logged = replay_records(&pre_checkpoint_log).len() as u64;
    assert!(logged >= u64::from(applied));
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    index.checkpoint(&path).unwrap(); // checkpoint id 1 on disk

    let result = AdaptiveClusterIndex::recover(
        Some(&path),
        Box::new(MemBacking::from_bytes(pre_checkpoint_log)),
        FlushPolicy::PerRecord,
        config_2d(),
    );
    let (recovered, report) = result.unwrap();
    assert_eq!(report.replayed_records, 0);
    assert_eq!(report.superseded_records, logged);
    assert_eq!(recovered.len(), applied as usize);
    recovered.check_invariants().unwrap();
    assert_eq!(recovered.snapshots(), index.snapshots());
    // The re-attached log was realigned: a later crash-recovery pairs
    // it with checkpoint generation 1, not 0.
    let mut recovered = recovered;
    let mut store = recovered.detach_wal().unwrap().into_store();
    let replay = Wal::replay(store.as_mut()).unwrap();
    assert_eq!(replay.checkpoint_id, Some(1));
    assert!(replay.records.is_empty());
}

/// A configuration whose clusters could own more candidate counters
/// than one checkpoint frame holds — 50 dims × 240² subinterval cells
/// is about 35 MB of them — is refused before an index exists, by `new`
/// and by `load` alike: no index is built whose log a checkpoint could
/// never truncate.
#[test]
fn a_configuration_whose_clusters_overflow_a_frame_is_refused() {
    let mut config = IndexConfig::memory(50);
    config.division_factor = 240;
    let refused = |r: Result<AdaptiveClusterIndex, IndexError>| {
        matches!(r, Err(IndexError::InvalidConfig(_)))
    };
    assert!(refused(AdaptiveClusterIndex::new(config.clone())));
    let path = TempPath::new("over-cap");
    assert!(refused(AdaptiveClusterIndex::load(&path, config)));
    assert!(!path.exists());
}

#[test]
fn recovery_refuses_a_log_newer_than_its_checkpoint() {
    // A log already truncated by checkpoint 1, recovered without that
    // checkpoint: the records the log no longer holds would be silently
    // lost, so recovery must refuse instead of returning a hole.
    let path = TempPath::new("ckpt-future");
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    let (_, err) = insert_until_failure(&mut index, 10);
    assert!(err.is_none());
    index.checkpoint(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let bytes = wal_bytes(&mut index); // stamped with checkpoint id 1
    let err = match recover_log(bytes, config_2d()) {
        Ok(_) => panic!("recovery accepted a log newer than its checkpoint"),
        Err(e) => e,
    };
    assert!(matches!(err, IndexError::Recovery { .. }), "got {err:?}");
    assert!(err.to_string().contains("missing or stale"), "{err}");
}

#[test]
fn checkpoint_ids_are_monotone_across_recoveries() {
    let path = TempPath::new("ckpt-monotone");
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    let (_, err) = insert_until_failure(&mut index, 8);
    assert!(err.is_none());
    index.checkpoint(&path).unwrap();
    index.checkpoint(&path).unwrap(); // id 2
    let bytes = wal_bytes(&mut index);
    let (mut recovered, report) = AdaptiveClusterIndex::recover(
        Some(&path),
        Box::new(MemBacking::from_bytes(bytes)),
        FlushPolicy::PerRecord,
        config_2d(),
    )
    .unwrap();
    assert_eq!(report.superseded_records, 0);
    // The next checkpoint continues the sequence the crash interrupted.
    recovered.checkpoint(&path).unwrap();
    let mut store = recovered.detach_wal().unwrap().into_store();
    let replay = Wal::replay(store.as_mut()).unwrap();
    assert_eq!(replay.checkpoint_id, Some(3));
}

/// A recovered index has the live one's cluster tree and answers every
/// probe with the same objects, and every one of its segments comes back
/// in key order: replay leaves them as the records fall and `recover`
/// orders them once, after the last one. (Which cluster a replayed
/// insert lands in depends on access statistics no log records, so
/// member counts and verification costs are not compared.)
#[test]
fn recovered_index_answers_like_the_live_one_and_comes_back_ordered() {
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    churn_until_slot_reuse(&mut index);
    // Mutations on top of the clustered population: removals leave
    // strays in the ordered runs and re-insertions land in the tails.
    for i in (0..600u32).step_by(3) {
        let rect = index.remove(ObjectId(1000 + i)).unwrap();
        if i % 2 == 0 {
            index.insert(ObjectId(5000 + i), rect).unwrap();
        }
    }
    assert!(index.total_splits() > 0 && index.cluster_count() > 1);
    let bytes = wal_bytes(&mut index);
    let (recovered, report) = recover_log(bytes, config_2d()).unwrap();
    assert!(report.replayed_records > 600);
    let tree = |index: &AdaptiveClusterIndex| {
        let mut tree: Vec<_> =
            index.snapshots().into_iter().map(|s| (s.depth, s.signature)).collect();
        tree.sort();
        tree
    };
    assert_eq!(tree(&recovered), tree(&index));

    for probe in [
        SpatialQuery::point_enclosing(vec![0.06, 0.07]),
        SpatialQuery::point_enclosing(vec![0.5, 0.5]),
        SpatialQuery::intersection(HyperRect::from_bounds(&[0.0, 0.0], &[0.3, 0.9]).unwrap()),
        SpatialQuery::containment(HyperRect::from_bounds(&[0.2, 0.1], &[0.9, 0.8]).unwrap()),
    ] {
        let (mut live, mut back) = (index.query(&probe).matches, recovered.query(&probe).matches);
        assert!(!live.is_empty(), "test premise: {probe:?} matches something");
        live.sort_unstable();
        back.sort_unstable();
        assert_eq!(live, back, "{probe:?}");
    }

    // A checkpoint lists each cluster's members in storage order, over
    // as many member frames as it takes.
    let checkpoint = Checkpoint::of(&recovered);
    let mut members = 0;
    for cluster in checkpoint.clusters() {
        let stored = checkpoint.members(&cluster);
        let keys: Vec<Scalar> = stored.iter().map(|m| m.1[0]).collect();
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "a segment came back out of order"
        );
        members += keys.len();
    }
    assert_eq!(members, recovered.len());
}

/// The save's temp file is the checkpoint's name with `.tmp` appended:
/// a user's `state.tmp` beside `state.ckpt` keeps its bytes, and two
/// checkpoints that differ only in extension do not share a temp file.
#[test]
fn save_leaves_a_neighbouring_tmp_file_alone() {
    let dir = TempPath::new("neighbour");
    std::fs::create_dir_all(&dir).unwrap();
    let neighbour = dir.join("state.tmp");
    std::fs::write(&neighbour, b"user data").unwrap();
    let index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index.save(&dir.join("state.ckpt")).unwrap();
    index.save(&dir.join("state.other")).unwrap();
    assert_eq!(std::fs::read(&neighbour).unwrap(), b"user data");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["state.ckpt", "state.other", "state.tmp"]);
}

/// A merge frees a slot and a later split recycles it, so the live
/// index lists that child after siblings with higher slots. A reload
/// keeps the live order: `snapshots()` and a query's matches come back
/// in the same order, not just as the same sets.
#[test]
fn a_reload_keeps_the_child_order_of_a_recycled_slot() {
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    churn_until_slot_reuse(&mut index);
    assert!(
        siblings_out_of_slot_order(&index),
        "test premise: a recycled slot sits among its siblings out of slot order"
    );

    let path = TempPath::new("recycled");
    index.save(&path).unwrap();
    let reloaded = AdaptiveClusterIndex::load(&path, config_2d()).unwrap();
    assert_eq!(reloaded.snapshots(), index.snapshots());
    let window = HyperRect::from_bounds(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
    let probe = SpatialQuery::intersection(window);
    assert_eq!(reloaded.query(&probe).matches, index.query(&probe).matches);
}

// ---------------------------------------------------------------------
// Plumbing edges
// ---------------------------------------------------------------------

#[test]
fn attach_wal_rejects_dimension_mismatch() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    let wal = mem_wal(3, FlushPolicy::PerRecord);
    assert!(matches!(
        index.attach_wal(wal),
        Err(IndexError::DimensionMismatch {
            expected: 2,
            actual: 3
        })
    ));
    assert!(index.detach_wal().is_none());
}

#[test]
fn update_logs_one_record() {
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(2)).unwrap();
    index
        .attach_wal(mem_wal(2, FlushPolicy::PerRecord))
        .unwrap();
    let r1 = HyperRect::from_bounds(&[0.1, 0.1], &[0.2, 0.2]).unwrap();
    let r2 = HyperRect::from_bounds(&[0.6, 0.6], &[0.8, 0.8]).unwrap();
    index.insert(ObjectId(7), r1).unwrap();
    index.update(ObjectId(7), r2.clone()).unwrap();
    let bytes = wal_bytes(&mut index);
    let records = replay_records(&bytes);
    assert_eq!(records.len(), 2, "insert + update, nothing double-logged");
    assert!(matches!(records[0], WalRecord::Insert { id: 7, .. }));
    assert!(matches!(records[1], WalRecord::Update { id: 7, .. }));

    let (recovered, _) = recover_log(bytes, IndexConfig::memory(2)).unwrap();
    assert_eq!(recovered.get(ObjectId(7)), Some(r2));
}

#[test]
fn per_epoch_policy_defers_flushes_to_the_close() {
    let log = MemBacking::new();
    let wal = Wal::create(Box::new(log.clone()), FlushPolicy::PerEpoch, 2).unwrap();
    let mut index = AdaptiveClusterIndex::new(config_2d()).unwrap();
    index.attach_wal(wal).unwrap();
    let (_, err) = insert_until_failure(&mut index, 20);
    assert!(err.is_none());
    index.reorganize(); // logs EpochClose, which flushes under PerEpoch
    let flushes = log.flushes();
    assert!(
        (1..=2).contains(&flushes),
        "only the header sync and the epoch close should flush, got {flushes}"
    );
    // Everything is still recoverable.
    let bytes = wal_bytes(&mut index);
    let (recovered, report) = AdaptiveClusterIndex::recover(
        None,
        Box::new(MemBacking::from_bytes(bytes)),
        FlushPolicy::PerEpoch,
        config_2d(),
    )
    .unwrap();
    assert_eq!(recovered.len(), 20);
    assert_eq!(report.replayed_records, 21); // 20 inserts + EpochClose
    assert_eq!(recovered.reorganizations(), 1);
}

/// The widest configuration `validate` accepts at the largest division
/// factor: at 21 d and `f = 255` a specialized cluster's frame (up to
/// `21 · 255²` candidates) still fits one checkpoint frame, one more
/// dimension does not. The root's 685 440 candidates checkpoint with a
/// log attached and load back into the same index, byte for byte.
#[test]
fn the_widest_accepted_configuration_checkpoints_and_loads() {
    let widest = |dims| IndexConfig {
        division_factor: 255,
        ..IndexConfig::memory(dims)
    };
    assert!(matches!(
        AdaptiveClusterIndex::new(widest(22)),
        Err(IndexError::InvalidConfig(_))
    ));
    let config = widest(21);
    let mut index = AdaptiveClusterIndex::new(config.clone()).unwrap();
    index
        .attach_wal(mem_wal(21, FlushPolicy::PerRecord))
        .unwrap();
    for i in 0..40u32 {
        // Every fourth object lies above the probe point in dimension 0.
        let lo: Vec<Scalar> = (0..21)
            .map(|d| if d == 0 && i % 4 == 0 { 0.5 } else { ((i + d) % 10) as Scalar / 50.0 })
            .collect();
        let hi: Vec<Scalar> = lo.iter().map(|v| v + 0.5).collect();
        index
            .insert(ObjectId(i), HyperRect::from_bounds(&lo, &hi).unwrap())
            .unwrap();
    }
    let probe = SpatialQuery::point_enclosing(vec![0.45; 21]);
    assert_eq!(index.execute(&probe).matches.len(), 30, "test premise");
    let path = TempPath::new("widest");
    index.checkpoint(&path).unwrap();

    let root = &Checkpoint::parse(&std::fs::read(&path).unwrap()).frames[1];
    let candidates = 21 * 255 * 256 / 2;
    assert_eq!(
        root.len(),
        67 + 18 * 21 + 12 * candidates,
        "the root's cluster frame"
    );
    let loaded = AdaptiveClusterIndex::load(&path, config).unwrap();
    loaded.check_invariants().unwrap();
    assert_eq!(loaded.snapshots(), index.snapshots());
    assert_eq!(checkpoint_bytes(&loaded), checkpoint_bytes(&index));
    assert_eq!(loaded.query(&probe).matches, index.query(&probe).matches);
}
