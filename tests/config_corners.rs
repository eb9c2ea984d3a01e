//! The corners of the configuration envelope: `dims` ∈ {1, 2, 65 535} ×
//! division factor ∈ {2, 4, 255}, plus (21, 255), the widest factor's
//! largest accepted dimensionality. Every corner `validate` accepts runs
//! the whole life cycle — new, insert, execute, reorganize, checkpoint,
//! load, recover from the checkpoint plus a log tail — with every answer
//! equal to the sequential scan's, the invariants checked at each step
//! and the reloaded checkpoint byte-identical. The one corner it refuses,
//! (65 535, 255), is refused by `new` and by `load`.

use acx::prelude::*;
use acx::storage::FlushPolicy;
use acx_testkit::{checkpoint_bytes, mem_wal, sorted, wal_bytes, MemBacking, TempPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The widest `dims` a checkpoint records.
const MAX_DIMS: usize = u16::MAX as usize;

/// The dimensions an object or a query draws at random; the others
/// span the domain, so that answers stay non-empty at any `dims`.
const DRAWN: usize = 4;

/// The paper's platform at `dims` and division factor `f`.
fn corner(dims: usize, f: u8) -> IndexConfig {
    IndexConfig {
        division_factor: f,
        ..IndexConfig::edbt2004(dims, StorageScenario::Memory)
    }
}

/// A rectangle drawn in the first [`DRAWN`] dimensions, `rest` in the
/// others.
fn rect_at(rng: &mut StdRng, dims: usize, extent: Scalar, rest: (Scalar, Scalar)) -> HyperRect {
    let (mut lo, mut hi) = (vec![rest.0; dims], vec![rest.1; dims]);
    for d in 0..dims.min(DRAWN) {
        let start = rng.gen_range(0.0..=1.0 - extent);
        (lo[d], hi[d]) = (start, start + rng.gen_range(0.0..=extent));
    }
    HyperRect::from_bounds(&lo, &hi).unwrap()
}

/// One query of each kind in turn, hot on the lower half of the domain
/// in the drawn dimensions.
fn query(rng: &mut StdRng, dims: usize, k: usize) -> SpatialQuery {
    let mut window = |extent, rest| {
        let r = rect_at(rng, dims, extent, rest);
        let (lo, hi): (Vec<Scalar>, Vec<Scalar>) = (0..dims)
            .map(|d| {
                let i = r.interval(d);
                if d < DRAWN {
                    (i.lo() * 0.5, i.hi() * 0.5)
                } else {
                    (i.lo(), i.hi())
                }
            })
            .unzip();
        HyperRect::from_bounds(&lo, &hi).unwrap()
    };
    match k % 4 {
        0 => SpatialQuery::intersection(window(0.3, (0.2, 0.3))),
        1 => SpatialQuery::containment(window(0.8, (0.0, 1.0))),
        2 => SpatialQuery::enclosure(window(0.05, (0.4, 0.6))),
        _ => {
            let point = (0..dims)
                .map(|d| {
                    if d < DRAWN {
                        rng.gen_range(0.0..=0.5)
                    } else {
                        0.5
                    }
                })
                .collect();
            SpatialQuery::point_enclosing(point)
        }
    }
}

/// Asserts that `index` answers each query as `scan` does.
fn assert_answers(
    index: &AdaptiveClusterIndex,
    scan: &SeqScan,
    queries: &[SpatialQuery],
    at: &str,
) {
    for (k, q) in queries.iter().enumerate() {
        assert_eq!(
            sorted(index.query(q).matches),
            sorted(scan.execute(q).matches),
            "{at}: query {k}"
        );
    }
}

/// The life cycle under `config`, over `objects` objects of extent up
/// to `extent` in the drawn dimensions.
fn life_cycle(config: IndexConfig, objects: u32, extent: Scalar) -> AdaptiveClusterIndex {
    const TAIL: u32 = 8;
    let (dims, f) = (config.dims, config.division_factor);
    let mut rng = StdRng::seed_from_u64(dims as u64 * 256 + u64::from(f));
    let mut index = AdaptiveClusterIndex::new(config.clone()).unwrap();
    index
        .attach_wal(mem_wal(dims, FlushPolicy::PerRecord))
        .unwrap();
    let mut scan = SeqScan::new(dims, StorageScenario::Memory);
    for id in 0..objects {
        let rect = rect_at(&mut rng, dims, extent, (0.0, 1.0));
        scan.insert(ObjectId(id), &rect);
        index.insert(ObjectId(id), rect).unwrap();
    }
    index.check_invariants().unwrap();

    // Enough queries for the index to run a pass of its own; then one
    // more pass, asked for.
    let queries: Vec<SpatialQuery> = (0..config.reorg_period as usize)
        .map(|k| query(&mut rng, dims, k))
        .collect();
    for (k, q) in queries.iter().enumerate() {
        let answer = sorted(index.execute(q).matches);
        assert_eq!(
            answer,
            sorted(scan.execute(q).matches),
            "execute: query {k}"
        );
    }
    assert!(index.reorganizations() > 0, "a pass ran inside execute");
    index.reorganize();
    index.check_invariants().unwrap();
    assert_answers(&index, &scan, &queries, "after reorganizing");

    let path = TempPath::new("corner");
    index.checkpoint(&path).unwrap();
    let loaded = AdaptiveClusterIndex::load(&path, config.clone()).unwrap();
    loaded.check_invariants().unwrap();
    assert_eq!(
        checkpoint_bytes(&loaded),
        std::fs::read(&path).unwrap(),
        "reloaded bytes"
    );
    assert_eq!(loaded.snapshots(), index.snapshots());
    assert_answers(&loaded, &scan, &queries, "loaded");

    // A log tail past the checkpoint: inserts, an update and removals.
    for id in objects..objects + TAIL {
        let rect = rect_at(&mut rng, dims, extent, (0.0, 1.0));
        scan.insert(ObjectId(id), &rect);
        index.insert(ObjectId(id), rect).unwrap();
    }
    let moved = rect_at(&mut rng, dims, 0.2, (0.1, 0.9));
    assert!(scan.remove(ObjectId(0)));
    scan.insert(ObjectId(0), &moved);
    index.update(ObjectId(0), moved).unwrap();
    for id in [1, objects] {
        assert!(scan.remove(ObjectId(id)));
        index.remove(ObjectId(id)).unwrap();
    }
    let log = Box::new(MemBacking::from_bytes(wal_bytes(&mut index)));
    let (recovered, report) =
        AdaptiveClusterIndex::recover(Some(&path), log, FlushPolicy::PerRecord, config).unwrap();
    assert_eq!(
        report.replayed_records,
        u64::from(TAIL) + 3,
        "the tail, and only it"
    );
    recovered.check_invariants().unwrap();
    assert_eq!(recovered.snapshots(), index.snapshots());
    assert_answers(&recovered, &scan, &queries, "recovered");
    assert_answers(&index, &scan, &queries, "live after the tail");
    index
}

/// Per division factor, the objects of a narrow corner: enough, and
/// small enough, that the pass splits. At factor 255 a split narrows a
/// dimension 255-fold, so small objects would each get a cluster of
/// their own, with tens of thousands of candidates apiece.
const NARROW: [(u8, u32, Scalar); 3] = [(2, 64, 0.1), (4, 64, 0.1), (255, 32, 0.5)];

/// The narrow corners at `dims`, one per division factor; each splits.
fn narrow(dims: usize) {
    for (f, objects, extent) in NARROW {
        let index = life_cycle(corner(dims, f), objects, extent);
        assert!(index.total_splits() > 0, "({dims}, {f}): the corner splits");
    }
}

/// A wide corner: the fewest objects, each spanning the domain in every
/// dimension but the drawn ones, and a pass every 16 queries, since
/// each query is recorded into hundreds of thousands of candidates.
fn wide(dims: usize, f: u8) {
    let config = IndexConfig {
        reorg_period: 16,
        ..corner(dims, f)
    };
    life_cycle(config, 32, 0.5);
}

#[test]
fn one_dimension_at_every_division_factor() {
    narrow(1);
}

#[test]
fn two_dimensions_at_every_division_factor() {
    narrow(2);
}

#[test]
fn the_widest_factor_at_its_largest_dimensionality() {
    wide(21, 255);
}

#[test]
#[ignore = "65 535-d objects: about 20 s in debug, under a second in release; CI's --include-ignored step runs it"]
fn the_most_dimensions_at_division_factor_2() {
    wide(MAX_DIMS, 2);
}

#[test]
#[ignore = "65 535-d objects: about 20 s in debug, under a second in release; CI's --include-ignored step runs it"]
fn the_most_dimensions_at_division_factor_4() {
    wide(MAX_DIMS, 4);
}

/// Past the last corner: `validate` refuses 65 535 dims at factor 255
/// (its cluster frames would outgrow a checkpoint frame), both when an
/// index is created and when a 65 535-d checkpoint is loaded.
#[test]
fn the_most_dimensions_at_the_widest_factor_are_refused() {
    let refused = || corner(MAX_DIMS, 255);
    assert!(matches!(
        AdaptiveClusterIndex::new(refused()),
        Err(IndexError::InvalidConfig(_))
    ));
    let path = TempPath::new("refused-corner");
    let index = AdaptiveClusterIndex::new(corner(MAX_DIMS, 2)).unwrap();
    index.save(&path).unwrap();
    assert!(AdaptiveClusterIndex::load(&path, corner(MAX_DIMS, 2)).is_ok());
    assert!(matches!(
        AdaptiveClusterIndex::load(&path, refused()),
        Err(IndexError::InvalidConfig(_))
    ));
}
