//! Panic safety of the reorganization pass.
//!
//! A reorganization pass that dies mid-flight — here via the test-only
//! fault hook, standing in for an allocation failure or a bug in cost
//! arithmetic — must never leave the index structurally broken: every
//! invariant still holds, queries still answer exactly, and the next
//! pass runs to completion. With a WAL attached, the log's surviving
//! prefix must also still recover to a valid index, as it would after a
//! process death at the same point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use acx_core::{AdaptiveClusterIndex, IndexConfig, ReorgFaultPoint};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::FlushPolicy;
use acx_testkit::{mem_wal, naive_matches, recover_log, sorted, wal_bytes};
use acx_workloads::{AdaptiveScenario, OscillatingHeat, UniformWorkload, WorkloadConfig};

const DIMS: usize = 3;

/// Builds the adversarial setup from the thrash suite: oscillating heat
/// reliably forces both merges and splits, so every fault point fires.
/// Objects are `(id, rect)`, ids counting from 0.
fn adversary(seed: u64) -> (AdaptiveClusterIndex, Vec<(u32, HyperRect)>, OscillatingHeat) {
    let cfg = WorkloadConfig::new(DIMS, 900, seed);
    let objects = UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects();
    let objects = (0..).zip(objects).collect();
    let scenario = OscillatingHeat::new(&cfg, 140, 0.3, 0.08);
    let mut config = IndexConfig::memory(DIMS);
    config.reorg_period = 0;
    config.confidence_z = 0.0;
    let index = AdaptiveClusterIndex::new(config).unwrap();
    (index, objects, scenario)
}

fn assert_answers_exactly(
    index: &AdaptiveClusterIndex,
    objects: &[(u32, HyperRect)],
    query: &SpatialQuery,
) {
    let got = sorted(index.query(query).matches);
    assert_eq!(got, naive_matches(objects, query), "answers after panic");
}

/// Drives query rounds + reorganizations with a hook that panics the
/// first time `point` fires; returns once the panic has happened.
/// Panics (failing the test) if the workload never reaches the point.
fn panic_at(
    index: &mut AdaptiveClusterIndex,
    scenario: &mut OscillatingHeat,
    point: ReorgFaultPoint,
) {
    let fired = Arc::new(AtomicUsize::new(0));
    let flag = Arc::clone(&fired);
    index.set_reorg_fault_hook(Some(Box::new(move |p| {
        if p == point && flag.fetch_add(usize::from(p == point), Ordering::SeqCst) == 0 {
            panic!("injected fault at {p:?}");
        }
    })));
    for round in 0..24 {
        for _ in 0..60 {
            let q = scenario.next_query();
            index.execute(&q);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            index.reorganize();
        }));
        if outcome.is_err() {
            assert!(fired.load(Ordering::SeqCst) > 0);
            index.set_reorg_fault_hook(None);
            return;
        }
        assert!(
            fired.load(Ordering::SeqCst) == 0,
            "hook fired without unwinding (round {round})"
        );
    }
    panic!("workload never reached fault point {point:?}");
}

fn check_after_panic(
    index: &mut AdaptiveClusterIndex,
    objects: &[(u32, HyperRect)],
    scenario: &mut OscillatingHeat,
) {
    index.check_invariants().unwrap();
    assert_answers_exactly(index, objects, &scenario.next_query());
    assert_answers_exactly(
        index,
        objects,
        &SpatialQuery::point_enclosing(vec![0.5; DIMS]),
    );
    // The next pass must complete normally and leave a valid index.
    for _ in 0..40 {
        let q = scenario.next_query();
        index.execute(&q);
    }
    index.reorganize();
    index.check_invariants().unwrap();
    assert_answers_exactly(index, objects, &scenario.next_query());
}

fn run_panic_point(point: ReorgFaultPoint, seed: u64) {
    let (mut index, objects, mut scenario) = adversary(seed);
    for (id, rect) in &objects {
        index.insert(ObjectId(*id), rect.clone()).unwrap();
    }
    panic_at(&mut index, &mut scenario, point);
    check_after_panic(&mut index, &objects, &mut scenario);
}

#[test]
fn panic_before_merge_leaves_index_valid() {
    run_panic_point(ReorgFaultPoint::BeforeMerge, 0xA11C_E001);
}

#[test]
fn panic_after_merge_leaves_index_valid() {
    run_panic_point(ReorgFaultPoint::AfterMerge, 0xA11C_E002);
}

#[test]
fn panic_before_materialize_leaves_index_valid() {
    run_panic_point(ReorgFaultPoint::BeforeMaterialize, 0xA11C_E003);
}

#[test]
fn panic_after_materialize_leaves_index_valid() {
    run_panic_point(ReorgFaultPoint::AfterMaterialize, 0xA11C_E004);
}

#[test]
fn panic_before_epoch_close_leaves_index_valid() {
    run_panic_point(ReorgFaultPoint::BeforeEpochClose, 0xA11C_E005);
}

/// Process death mid-reorganization: the WAL prefix written up to the
/// panic point must recover to a valid index on its own — the replayed
/// structural records stop exactly where the pass died.
#[test]
fn wal_written_before_mid_reorg_panic_recovers() {
    let (mut index, objects, mut scenario) = adversary(0xA11C_E006);
    index
        .attach_wal(mem_wal(DIMS, FlushPolicy::PerRecord))
        .unwrap();
    for (id, rect) in &objects {
        index.insert(ObjectId(*id), rect.clone()).unwrap();
    }
    panic_at(&mut index, &mut scenario, ReorgFaultPoint::AfterMaterialize);
    assert!(index.wal_failure().is_none(), "a panic is not a log fault");

    // Simulate the process dying at the panic: recover purely from what
    // the log holds at this instant.
    let bytes = wal_bytes(&mut index);
    let (recovered, report) = recover_log(bytes, IndexConfig::memory(DIMS)).unwrap();
    recovered.check_invariants().unwrap();
    assert_eq!(report.objects, objects.len());
    assert_eq!(recovered.len(), objects.len());
    assert!(
        recovered.total_splits() > 0,
        "the interrupted pass logged at least the materialization that panicked"
    );
    assert_answers_exactly(
        &recovered,
        &objects,
        &SpatialQuery::point_enclosing(vec![0.5; DIMS]),
    );
}
