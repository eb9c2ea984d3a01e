//! Regression test: once its scratch buffers are warm, the read-only
//! matching phase (`query_with` / `query_recorded_with` with a reused
//! [`StatsDelta`]) performs **zero heap allocations per query**,
//! `execute` allocates **exactly the match vector it returns** — and
//! a settled reorganization pass performs **zero heap allocations**
//! outright: each cluster slot owns its `CandidateSet`, whose columns
//! and cut tables are sized once in `CandidateSet::generate`, and the
//! pass scratch is index-owned. So does the
//! write path when it puts a segment back in key order: the mutation
//! that folds allocates what any other does.
//!
//! A counting global allocator wraps the system allocator; the tests
//! warm the relevant state over the full stream, then assert the
//! allocation counter does not move across a second pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch, StatsDelta};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_testkit::paper;

/// The allocation counter is process-global, so tests measuring it must
/// not run concurrently — each one holds this lock across its body.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts every allocation (alloc, alloc_zeroed, realloc) delegated to
/// the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Deterministic pseudo-random scalar in `[0, 1]` on a coarse grid
/// (avoids pulling the `rand` dev-dependency into this binary: setup
/// allocations don't matter, but determinism of the measured loop does).
fn coord(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) % 33) as f32 / 32.0
}

#[test]
fn warmed_up_read_path_allocates_nothing_per_query() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dims = 6;
    let mut state = 0x5EED_u64;
    let mut config = paper(dims);
    config.reorg_period = 0; // explicit passes below: none may fall into a measured loop
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..3000u32 {
        let (lo, hi): (Vec<f32>, Vec<f32>) = (0..dims)
            .map(|_| {
                let a = coord(&mut state);
                let b = coord(&mut state);
                (a.min(b), a.max(b))
            })
            .unzip();
        index
            .insert(ObjectId(i), HyperRect::from_bounds(&lo, &hi).unwrap())
            .unwrap();
    }
    let queries: Vec<SpatialQuery> = (0..64)
        .map(|k| {
            if k % 2 == 0 {
                SpatialQuery::point_enclosing((0..dims).map(|_| coord(&mut state)).collect())
            } else {
                let (lo, hi): (Vec<f32>, Vec<f32>) = (0..dims)
                    .map(|_| {
                        let a = coord(&mut state);
                        let b = coord(&mut state);
                        (a.min(b), a.max(b))
                    })
                    .unzip();
                SpatialQuery::intersection(HyperRect::from_bounds(&lo, &hi).unwrap())
            }
        })
        .collect();

    // Adapt the index so several clusters exist and exploration does
    // real tree traversal, run every query through `execute` on the
    // adapted tree (warming the index-owned scratch), then warm the
    // caller-owned scratch pair over every query.
    for _ in 0..2 {
        for q in &queries {
            index.execute(q);
        }
        index.reorganize();
    }
    assert!(
        index.cluster_count() > 1,
        "test premise: clusters must have materialized"
    );
    for q in &queries {
        index.execute(q);
    }
    let mut scratch = QueryScratch::new();
    let mut delta = StatsDelta::new();
    let mut warm_matches = 0usize;
    for q in &queries {
        delta.clear();
        index.query_recorded_with(q, &mut delta, &mut scratch);
        warm_matches += scratch.matches().len();
        index.query_with(q, &mut scratch);
    }

    // Measured pass: the identical query set through the warm scratch.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut measured_matches = 0usize;
    for q in &queries {
        delta.clear();
        index.query_recorded_with(q, &mut delta, &mut scratch);
        measured_matches += scratch.matches().len();
        index.query_with(q, &mut scratch);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(measured_matches, warm_matches, "test premise: same work");
    assert!(warm_matches > 0, "test premise: queries must match objects");
    assert_eq!(
        after - before,
        0,
        "warmed-up explore allocated {} times across {} queries",
        after - before,
        2 * queries.len()
    );

    // `execute` — candidate counting included — runs through the
    // index-owned scratch and writes the candidate sets in place; once
    // warm, what it allocates is the match vector it returns, and an
    // empty one is no allocation.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut executed_matches = 0usize;
    let mut returned_vectors = 0u64;
    for q in &queries {
        let matches = index.execute(q).matches;
        executed_matches += matches.len();
        returned_vectors += u64::from(!matches.is_empty());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(executed_matches, warm_matches, "test premise: same work");
    assert_eq!(
        after - before,
        returned_vectors,
        "warmed-up execute allocated {} times for {} non-empty match vectors",
        after - before,
        returned_vectors
    );
}

/// A *settled* production reorganization pass — the stream
/// has stopped forcing splits and merges, so the pass only screens,
/// scans candidate columns, and folds the epoch — allocates nothing:
/// the columns live in each cluster's candidate set, which `execute`
/// writes in place, and every scratch
/// buffer is index-owned and warm.
#[test]
fn warmed_reorg_pass_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dims = 5;
    let mut state = 0xA2E7A_u64;
    let mut config = paper(dims);
    config.reorg_period = 0; // explicit passes below
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for i in 0..2000u32 {
        let (lo, hi): (Vec<f32>, Vec<f32>) = (0..dims)
            .map(|_| {
                let a = coord(&mut state);
                let b = coord(&mut state);
                (a.min(b), a.max(b))
            })
            .unzip();
        index
            .insert(ObjectId(i), HyperRect::from_bounds(&lo, &hi).unwrap())
            .unwrap();
    }
    // A fixed, skewed query set replayed every round: the clustering
    // converges on it, after which passes stop restructuring.
    let queries: Vec<SpatialQuery> = (0..48)
        .map(|_| {
            SpatialQuery::point_enclosing((0..dims).map(|_| coord(&mut state) * 0.4).collect())
        })
        .collect();
    let mut settled_rounds = 0;
    for _ in 0..30 {
        for q in &queries {
            index.execute(q);
        }
        let report = index.reorganize();
        if report.splits == 0 && report.merges == 0 {
            settled_rounds += 1;
            if settled_rounds >= 2 {
                break;
            }
        } else {
            settled_rounds = 0;
        }
    }
    assert!(
        settled_rounds >= 2,
        "stream must settle for the measured pass to be structural-change-free"
    );

    // Measured pass: same query window, then one pass through warm
    // candidate columns and warm pass scratch.
    for q in &queries {
        index.execute(q);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = index.reorganize();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        (report.splits, report.merges),
        (0, 0),
        "test premise: settled pass"
    );
    let profile = index.last_reorg_profile();
    assert!(
        profile.evaluated > 0,
        "test premise: the pass must evaluate clusters"
    );
    assert!(
        index.cluster_count() > 1,
        "test premise: clusters must have materialized"
    );
    assert_eq!(
        after - before,
        0,
        "settled reorganization pass allocated {} times",
        after - before
    );
}

/// The mutation that brings a segment's disorder to the fold threshold
/// orders the segment in store-owned scratch. Once that scratch has held
/// a segment as large (here: after the stream's first fold), ordering
/// allocates nothing: every later `remove` costs the same allocations,
/// the ones that fold included.
#[test]
fn warmed_write_path_fold_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dims = 4;
    let mut state = 0xF01D_u64;
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(dims)).unwrap();
    for i in 0..1500u32 {
        let (lo, hi): (Vec<f32>, Vec<f32>) = (0..dims)
            .map(|_| {
                let a = coord(&mut state);
                let b = coord(&mut state);
                (a.min(b), a.max(b))
            })
            .unzip();
        index
            .insert(ObjectId(i), HyperRect::from_bounds(&lo, &hi).unwrap())
            .unwrap();
    }
    assert_eq!(
        index.cluster_count(),
        1,
        "test premise: one segment holds everything"
    );
    // Matches come back in storage order: a segment with no member below
    // its predecessor's key has just been put in key order.
    let everything =
        SpatialQuery::intersection(HyperRect::from_bounds(&[0.0; 4], &[1.0; 4]).unwrap());
    let in_key_order = |index: &AdaptiveClusterIndex| {
        let keys: Vec<f32> = index
            .query(&everything)
            .matches
            .iter()
            .map(|&id| index.get(id).unwrap().interval(0).lo())
            .collect();
        keys.windows(2).all(|w| w[0] <= w[1])
    };
    let mut per_remove = std::collections::BTreeSet::new();
    let (mut warm_folds, mut measured_folds) = (0, 0);
    let mut ordered = in_key_order(&index);
    for i in 0..800u32 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        index.remove(ObjectId(i)).unwrap();
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let now = in_key_order(&index);
        let folded = now && !ordered;
        ordered = now;
        if warm_folds == 0 {
            warm_folds += u32::from(folded);
        } else {
            per_remove.insert(allocated);
            measured_folds += u32::from(folded);
        }
    }
    assert!(
        measured_folds >= 1,
        "test premise: a warm fold must fall into the measured removes"
    );
    assert_eq!(
        per_remove.len(),
        1,
        "a folding remove allocated differently: {per_remove:?}"
    );
}
