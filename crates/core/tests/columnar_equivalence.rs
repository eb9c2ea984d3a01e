//! The production execution must be **bit-identical** to the reference
//! ([`IndexConfig::reference`]) — not just in match sets, but in every
//! access counter (`AccessStats`), every recorded statistic
//! (`StatsDelta`), and every reorganization decision derived from them.
//! A production index (columnar member kernel,
//! per-dimension candidate count, screened columnar pass) and a
//! reference index (object-at-a-time loops, every cluster scanned) are
//! driven through identical workloads and compared query by query.
//!
//! The same holds across the two statistics-writing paths of one index
//! configuration: `execute` (the arena, in place) and
//! `query_recorded_with` + `apply_stats` (a delta) answer alike and
//! leave checkpoints that are equal byte for byte — every cluster's and
//! candidate's `q`, `q_eff` and decay stamp included.
//!
//! The layers underneath are pinned by their own suites: every
//! instruction tier of the member kernel against `matches_flat` in
//! `acx_geom::scan`, the candidate count against the scalar loop and
//! arena ranges against owned sets in `acx_core::candidates`.

use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch, ReorgReport, StatsDelta};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::StorageScenario;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's platform, which materializes clusters from the few
/// hundred to few thousand objects of these streams (`reorg_equivalence.rs`
/// holds the measured profile to the same standard at its own scale).
fn paper(dims: usize) -> IndexConfig {
    IndexConfig::edbt2004(dims, StorageScenario::Memory)
}

/// A production index and its reference twin over the same configuration.
fn pair(config: IndexConfig) -> (AdaptiveClusterIndex, AdaptiveClusterIndex) {
    let reference = IndexConfig {
        reference: true,
        ..config.clone()
    };
    (
        AdaptiveClusterIndex::new(config).unwrap(),
        AdaptiveClusterIndex::new(reference).unwrap(),
    )
}

fn random_rect(rng: &mut StdRng, dims: usize, grid: u32) -> HyperRect {
    // Snap coordinates to a coarse grid so query edges coincide with
    // object edges constantly — the boundary cases where `<=` vs `<`
    // mistakes would show up.
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        let a = rng.gen_range(0..=grid) as f32 / grid as f32;
        let b = rng.gen_range(0..=grid) as f32 / grid as f32;
        lo.push(a.min(b));
        hi.push(a.max(b));
    }
    HyperRect::from_bounds(&lo, &hi).unwrap()
}

fn random_query(rng: &mut StdRng, dims: usize, grid: u32) -> SpatialQuery {
    match rng.gen_range(0..4u32) {
        0 => SpatialQuery::intersection(random_rect(rng, dims, grid)),
        1 => SpatialQuery::containment(random_rect(rng, dims, grid)),
        2 => SpatialQuery::enclosure(random_rect(rng, dims, grid)),
        _ => SpatialQuery::point_enclosing(
            (0..dims)
                .map(|_| rng.gen_range(0..=grid) as f32 / grid as f32)
                .collect(),
        ),
    }
}

/// Drives the production index and the reference through the same
/// insert + query stream, asserting bit-identical results, metrics, and
/// adaptive state at every step.
fn assert_equivalent(dims: usize, objects: usize, queries: usize, seed: u64) {
    let mut config = paper(dims);
    config.reorg_period = 40; // several reorganizations within the stream
    let (mut columnar, mut oracle) = pair(config);

    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..objects {
        let rect = random_rect(&mut rng, dims, 8);
        columnar.insert(ObjectId(i as u32), rect.clone()).unwrap();
        oracle.insert(ObjectId(i as u32), rect).unwrap();
    }

    for k in 0..queries {
        let q = random_query(&mut rng, dims, 8);
        let a = columnar.execute(&q);
        let b = oracle.execute(&q);
        assert_eq!(a.matches, b.matches, "match set/order diverged on query {k}");
        assert_eq!(
            a.metrics.stats, b.metrics.stats,
            "AccessStats diverged on query {k}"
        );
        assert_eq!(
            a.metrics.priced_ms, b.metrics.priced_ms,
            "priced cost diverged on query {k}"
        );
    }

    // The adaptive state — reorganization decisions included — is
    // bit-identical because every statistic feeding it was.
    assert_eq!(columnar.reorganizations(), oracle.reorganizations());
    assert!(columnar.reorganizations() > 0, "the stream must reorganize");
    assert_eq!(columnar.total_merges(), oracle.total_merges());
    assert_eq!(columnar.total_splits(), oracle.total_splits());
    assert_eq!(columnar.verify_fraction(), oracle.verify_fraction());
    assert_eq!(columnar.snapshots(), oracle.snapshots());
    columnar.check_invariants().unwrap();
    oracle.check_invariants().unwrap();
}

#[test]
fn columnar_equals_oracle_low_dims() {
    assert_equivalent(2, 800, 260, 0xC01);
}

#[test]
fn columnar_equals_oracle_mid_dims() {
    assert_equivalent(5, 700, 220, 0xC05);
}

#[test]
fn columnar_equals_oracle_high_dims() {
    assert_equivalent(8, 600, 200, 0xC08);
}

#[test]
fn recorded_stats_deltas_are_identical() {
    let dims = 4;
    let (mut columnar, mut oracle) = pair(paper(dims));
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    for i in 0..500u32 {
        let rect = random_rect(&mut rng, dims, 8);
        columnar.insert(ObjectId(i), rect.clone()).unwrap();
        oracle.insert(ObjectId(i), rect).unwrap();
    }
    // Shape both indexes identically first (same stream, reorgs included).
    for _ in 0..150 {
        let q = random_query(&mut rng, dims, 8);
        columnar.execute(&q);
        oracle.execute(&q);
    }
    // Freshly record the same queries on both: the deltas must be equal
    // field for field (StatsDelta: PartialEq).
    let mut delta_c = StatsDelta::new();
    let mut delta_o = StatsDelta::new();
    let mut scratch = QueryScratch::new();
    for _ in 0..40 {
        let q = random_query(&mut rng, dims, 8);
        let mc = columnar.query_recorded_with(&q, &mut delta_c, &mut scratch);
        let matches_c = scratch.matches().to_vec();
        let ro = oracle.query_recorded(&q, &mut delta_o);
        assert_eq!(matches_c, ro.matches);
        assert_eq!(mc.stats, ro.metrics.stats);
    }
    assert_eq!(delta_c, delta_o, "recorded StatsDelta diverged");
    assert_eq!(delta_c.queries(), 40);
}

/// One index per statistics-writing path, both of one configuration,
/// driven through the same operations.
struct Duo {
    /// `execute`: the arena, in place.
    direct: AdaptiveClusterIndex,
    /// `query_recorded_with` + `apply_stats`: a reused delta.
    two_phase: AdaptiveClusterIndex,
    delta: StatsDelta,
    scratch: QueryScratch,
    /// Slots the recorded deltas touched since the test last cleared it.
    touched: std::collections::HashSet<u32>,
}

impl Duo {
    fn new(config: IndexConfig) -> Self {
        let index = || AdaptiveClusterIndex::new(config.clone()).unwrap();
        Self {
            direct: index(),
            two_phase: index(),
            delta: StatsDelta::new(),
            scratch: QueryScratch::new(),
            touched: Default::default(),
        }
    }

    fn each(&mut self) -> [&mut AdaptiveClusterIndex; 2] {
        [&mut self.direct, &mut self.two_phase]
    }

    fn insert(&mut self, id: u32, rect: &HyperRect) {
        for index in self.each() {
            index.insert(ObjectId(id), rect.clone()).unwrap();
        }
    }

    /// Runs `queries` through each index's own path; answers, access
    /// counters and the state left behind must not differ.
    fn run(&mut self, queries: &[SpatialQuery]) {
        for q in queries {
            let a = self.direct.execute(q);
            self.delta.clear();
            let b = self
                .two_phase
                .query_recorded_with(q, &mut self.delta, &mut self.scratch);
            self.touched.extend(self.delta.touched_slots());
            self.two_phase.apply_stats(&self.delta);
            assert_eq!(a.matches, self.scratch.matches(), "two-phase matches on {q:?}");
            assert_eq!(a.metrics.stats, b.stats, "two-phase AccessStats on {q:?}");
        }
        self.assert_same_state();
    }

    /// An explicit pass on both: the same report.
    fn reorganize(&mut self) -> ReorgReport {
        let [a, b] = self.each().map(|index| index.reorganize());
        assert_eq!(a, b, "two-phase ReorgReport");
        self.assert_same_state();
        a
    }

    /// Checkpoints are byte-deterministic and carry every counter of
    /// every cluster and candidate, so equal bytes are equal state.
    fn assert_same_state(&self) {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let bytes = |index: &AdaptiveClusterIndex| {
            let path = std::env::temp_dir().join(format!(
                "acx-sinks-{}-{}.ckpt",
                std::process::id(),
                NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            index.save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            bytes
        };
        assert!(
            bytes(&self.direct) == bytes(&self.two_phase),
            "two-phase checkpoint differs"
        );
        assert_eq!(self.direct.snapshots(), self.two_phase.snapshots());
        assert_eq!(self.direct.reorganizations(), self.two_phase.reorganizations());
    }
}

/// Point queries inside `[lo, lo + 0.25]` of every dimension.
fn corner_points(rng: &mut StdRng, dims: usize, lo: f32, n: usize) -> Vec<SpatialQuery> {
    (0..n)
        .map(|_| {
            SpatialQuery::point_enclosing(
                (0..dims).map(|_| lo + rng.gen_range(0..=8) as f32 / 32.0).collect(),
            )
        })
        .collect()
}

/// `execute` ≡ `query_recorded_with` + `apply_stats`, with automatic
/// passes (`period > 0`: fired from inside `apply_stats`) or explicit
/// ones (`period == 0`: reports compared).
fn assert_paths_equivalent(reference: bool, period: u64) {
    let dims = 3;
    let mut config = paper(dims);
    config.reference = reference;
    config.reorg_period = period;
    let mut duo = Duo::new(config);
    let mut rng = StdRng::seed_from_u64(0x51D + period);
    for i in 0..600u32 {
        duo.insert(i, &random_rect(&mut rng, dims, 8));
    }
    // Ragged chunk sizes, state compared after each: single queries,
    // short chunks, chunks that cross an automatic pass.
    let epoch = |duo: &mut Duo, queries: &[SpatialQuery]| -> ReorgReport {
        let mut rest = queries;
        for size in [1usize, 3, 17].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at((*size).min(rest.len()));
            duo.run(head);
            rest = tail;
        }
        if period == 0 {
            duo.reorganize()
        } else {
            ReorgReport::default()
        }
    };
    let mixed = |rng: &mut StdRng| -> Vec<SpatialQuery> {
        (0..40).map(|_| random_query(rng, dims, 8)).collect()
    };

    // Shape a tree around the low corner.
    let mut changed = false;
    for _ in 0..4 {
        let mut queries = corner_points(&mut rng, dims, 0.0, 30);
        queries.extend(mixed(&mut rng));
        changed |= epoch(&mut duo, &queries).changed();
    }
    assert!(duo.direct.cluster_count() > 1, "test premise: clusters materialized");
    assert!(period > 0 || changed, "test premise: a pass changed the clustering");

    // Three epochs that only visit the high corner: the low corner's
    // clusters sleep through three closes…
    let mut awake = usize::MAX;
    for _ in 0..3 {
        let queries = corner_points(&mut rng, dims, 0.75, 70);
        duo.touched.clear();
        epoch(&mut duo, &queries);
        if period == 0 {
            assert!(
                duo.touched.len() < duo.direct.cluster_count(),
                "test premise: some clusters were left untouched"
            );
            awake = awake.min(duo.touched.len());
        }
    }
    // …and are then hit again: each replays the closes it skipped
    // before the first new increment lands on it.
    let queries = corner_points(&mut rng, dims, 0.0, 70);
    duo.touched.clear();
    epoch(&mut duo, &queries);
    if period == 0 {
        assert!(
            duo.touched.len() > awake,
            "test premise: sleeping clusters were hit again"
        );
    }

    // A delta recorded before a pass that changes the clustering and
    // applied after it is stale on every index alike: totals counted,
    // per-cluster increments dropped.
    if period == 0 {
        let stale_queries = mixed(&mut rng);
        let mut stale = [StatsDelta::new(), StatsDelta::new()];
        for (index, delta) in duo.each().into_iter().zip(&mut stale) {
            for q in &stale_queries {
                index.query_recorded(q, delta);
            }
        }
        let mut restructured = false;
        for _ in 0..6 {
            let mut queries = corner_points(&mut rng, dims, 0.5, 40);
            queries.extend(mixed(&mut rng));
            duo.run(&queries);
            if duo.reorganize().changed() {
                restructured = true;
                break;
            }
        }
        assert!(restructured, "test premise: the clustering changed under the deltas");
        let total = duo.direct.total_queries();
        let before = duo.direct.snapshots();
        for (index, delta) in duo.each().into_iter().zip(&stale) {
            index.apply_stats(delta);
        }
        duo.assert_same_state();
        assert_eq!(duo.direct.total_queries(), total + stale_queries.len() as u64);
        for (was, now) in before.iter().zip(duo.direct.snapshots()) {
            assert!(
                now.access_probability <= was.access_probability,
                "stale delta credited cluster {}",
                now.id
            );
        }
        let queries = mixed(&mut rng);
        epoch(&mut duo, &queries);
    }
    for index in duo.each() {
        index.check_invariants().unwrap();
    }
}

#[test]
fn both_paths_leave_identical_state_with_explicit_passes() {
    for reference in [false, true] {
        assert_paths_equivalent(reference, 0);
    }
}

#[test]
fn both_paths_leave_identical_state_with_automatic_passes() {
    for reference in [false, true] {
        assert_paths_equivalent(reference, 35);
    }
}

#[test]
fn read_only_paths_agree_with_execute() {
    let dims = 3;
    let (mut columnar, _) = pair(paper(dims));
    let mut rng = StdRng::seed_from_u64(0x0A11);
    for i in 0..400u32 {
        let rect = random_rect(&mut rng, dims, 8);
        columnar.insert(ObjectId(i), rect).unwrap();
    }
    for _ in 0..120 {
        columnar.execute(&random_query(&mut rng, dims, 8));
    }
    let mut scratch = QueryScratch::new();
    for _ in 0..30 {
        let q = random_query(&mut rng, dims, 8);
        let read_only = columnar.query(&q);
        let metrics = columnar.query_with(&q, &mut scratch);
        assert_eq!(read_only.matches, scratch.matches());
        assert_eq!(read_only.metrics.stats, metrics.stats);
        let executed = columnar.execute(&q);
        assert_eq!(executed.matches, read_only.matches);
        assert_eq!(executed.metrics.stats, read_only.metrics.stats);
    }
}

#[test]
fn boundary_coincident_edges_agree() {
    // Objects whose edges coincide exactly with the query window edges
    // in every combination, including degenerate (zero-width) intervals.
    let dims = 2;
    let (mut columnar, mut oracle) = pair(paper(dims));
    let coords = [0.0f32, 0.25, 0.5, 0.75, 1.0];
    let mut id = 0u32;
    for &a in &coords {
        for &b in &coords {
            if b < a {
                continue;
            }
            for &c in &coords {
                for &d in &coords {
                    if d < c {
                        continue;
                    }
                    let rect = HyperRect::from_bounds(&[a, c], &[b, d]).unwrap();
                    columnar.insert(ObjectId(id), rect.clone()).unwrap();
                    oracle.insert(ObjectId(id), rect).unwrap();
                    id += 1;
                }
            }
        }
    }
    let window = HyperRect::from_bounds(&[0.25, 0.25], &[0.75, 0.75]).unwrap();
    let queries = [
        SpatialQuery::intersection(window.clone()),
        SpatialQuery::containment(window.clone()),
        SpatialQuery::enclosure(window),
        SpatialQuery::point_enclosing(vec![0.25, 0.75]),
        SpatialQuery::point_enclosing(vec![0.0, 1.0]),
    ];
    for q in &queries {
        let a = columnar.execute(q);
        let b = oracle.execute(q);
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.metrics.stats, b.metrics.stats);
        assert!(!a.matches.is_empty(), "boundary query should match something");
    }
}

proptest! {
    /// Random workloads in 1–8 dimensions, all query kinds, with
    /// boundary-coincident edges (grid-snapped coordinates): executing
    /// the same stream on the production index and the reference leaves
    /// identical matches, `AccessStats`, recorded `StatsDelta`s and
    /// clustering state.
    #[test]
    fn prop_columnar_equals_oracle(
        dims in 1usize..=8,
        n_objects in 1usize..140,
        n_queries in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let mut config = paper(dims);
        config.reorg_period = 25;
        let (mut columnar, mut oracle) = pair(config);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n_objects {
            let rect = random_rect(&mut rng, dims, 6);
            columnar.insert(ObjectId(i as u32), rect.clone()).unwrap();
            oracle.insert(ObjectId(i as u32), rect).unwrap();
        }
        for _ in 0..n_queries {
            let q = random_query(&mut rng, dims, 6);
            // Record the query read-only on both indexes first: the
            // freshly recorded deltas must be equal field for field.
            // (Fresh deltas per query, so an `execute`-triggered
            // reorganization between queries never strands an epoch.)
            let mut delta_c = StatsDelta::new();
            let mut delta_o = StatsDelta::new();
            let ra = columnar.query_recorded(&q, &mut delta_c);
            let rb = oracle.query_recorded(&q, &mut delta_o);
            prop_assert_eq!(ra.matches, rb.matches);
            prop_assert_eq!(delta_c, delta_o);
            let a = columnar.execute(&q);
            let b = oracle.execute(&q);
            prop_assert_eq!(&a.matches, &b.matches);
            prop_assert_eq!(a.metrics.stats, b.metrics.stats);
        }
        prop_assert_eq!(columnar.reorganizations(), oracle.reorganizations());
        prop_assert_eq!(columnar.snapshots(), oracle.snapshots());
    }
}
