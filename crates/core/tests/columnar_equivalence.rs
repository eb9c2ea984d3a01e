//! The index answers, counts and reorganizes as the paper's model
//! (`acx_testkit::model`) does — not just in match sets, but in every
//! access counter (`AccessStats`), the priced cost, every statistic
//! (each cluster's and candidate's `q`/`q_eff` bits, read from the
//! index's checkpoint) and every reorganization decision derived from
//! them. The index (columnar member kernel, per-dimension candidate
//! count, screened columnar pass, lazily decayed candidate sets) and the model
//! (plain member lists, per-candidate signature tests, eager decay) are
//! driven through identical workloads and compared query by query.
//!
//! The same holds across the two statistics-writing paths of one index:
//! `execute` (the candidate sets, in place) and `query_recorded_with` +
//! `apply_stats` (a delta) answer alike and leave checkpoints that are
//! equal byte for byte — every cluster's and candidate's `q`, `q_eff`
//! and decay stamp included — and the state the model is in.
//!
//! The layers underneath are pinned by their own suites: every
//! instruction tier of the member kernel against `matches_flat` in
//! `acx_geom::scan`, and the candidate count against the scalar loop in
//! `acx_core::candidates`.

use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch, ReorgReport, StatsDelta};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_testkit::model::{assert_same, assert_same_answer, Answer, Model};
use acx_testkit::{checkpoint_bytes, paper, random_grid_query, random_grid_rect, sorted};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An index and the model over the same configuration.
fn pair(config: IndexConfig) -> (AdaptiveClusterIndex, Model) {
    (
        AdaptiveClusterIndex::new(config.clone()).unwrap(),
        Model::new(config),
    )
}

/// Drives the index and the model through the same insert + query
/// stream, asserting identical answers and metrics per query and
/// identical state after every pass.
fn assert_equivalent(dims: usize, objects: usize, queries: usize, seed: u64) {
    let mut config = paper(dims);
    config.reorg_period = 40; // several reorganizations within the stream
    let (mut index, mut model) = pair(config);

    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..objects {
        let rect = random_grid_rect(&mut rng, dims, 8);
        index.insert(ObjectId(i as u32), rect.clone()).unwrap();
        model.insert(ObjectId(i as u32), rect).unwrap();
    }

    for k in 0..queries {
        let q = random_grid_query(&mut rng, dims, 8);
        let a = index.execute(&q);
        let b = model.execute(&q);
        assert_same_answer(&a.matches, &a.metrics, &b, &format!("query {k}"));
        if index.total_queries() % 40 == 0 {
            assert_same(&index, &model, &format!("after the pass at query {k}"));
        }
    }
    assert!(index.reorganizations() > 0, "the stream must reorganize");
    assert_same(&index, &model, "end of stream");
    index.check_invariants().unwrap();
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

/// The slots a delta logged, ascending: one entry per query that
/// explored the slot.
fn touched(delta: &StatsDelta) -> Vec<u32> {
    let mut slots = delta.touched_slots().to_vec();
    slots.sort_unstable();
    slots
}

/// The slots the model explored over `answers`, ascending: one entry per
/// answer that explored the slot.
fn explored(answers: &[Answer]) -> Vec<u32> {
    let mut slots: Vec<u32> = answers.iter().flat_map(|a| a.explored.clone()).collect();
    slots.sort_unstable();
    slots
}

#[test]
fn recorded_stats_deltas_are_identical() {
    let dims = 4;
    let (mut index, mut model) = pair(paper(dims));
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    for i in 0..500u32 {
        let rect = random_grid_rect(&mut rng, dims, 8);
        index.insert(ObjectId(i), rect.clone()).unwrap();
        model.insert(ObjectId(i), rect).unwrap();
    }
    // Shape both identically first (same stream, a pass included).
    for _ in 0..150 {
        let q = random_grid_query(&mut rng, dims, 8);
        index.execute(&q);
        model.execute(&q);
    }
    assert_same(&index, &model, "shaped");
    // Record queries into one delta: it logs the clusters the model
    // explores, as often as the model explores them, and applying it
    // leaves the index where the model's
    // executions of the same queries leave the model.
    let mut delta = StatsDelta::new();
    let mut scratch = QueryScratch::new();
    let mut answers = Vec::new();
    for k in 0..40 {
        let q = random_grid_query(&mut rng, dims, 8);
        let metrics = index.query_recorded_with(&q, &mut delta, &mut scratch);
        let answer = model.execute(&q);
        assert_same_answer(
            scratch.matches(),
            &metrics,
            &answer,
            &format!("recorded query {k}"),
        );
        answers.push(answer);
    }
    assert_eq!(delta.queries(), 40);
    assert_eq!(touched(&delta), explored(&answers), "touched clusters");
    index.apply_stats(&delta);
    assert_same(&index, &model, "applied delta");
}

/// One index per statistics-writing path, both of one configuration,
/// and the model, driven through the same operations.
struct Duo {
    /// `execute`: the candidate sets, in place.
    direct: AdaptiveClusterIndex,
    /// `query_recorded_with` + `apply_stats`: a reused delta.
    two_phase: AdaptiveClusterIndex,
    model: Model,
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
            model: Model::new(config.clone()),
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
        self.model.insert(ObjectId(id), rect.clone()).unwrap();
    }

    /// Runs `queries` through each index's own path and the model;
    /// answers, access counters and the state left behind must not
    /// differ.
    fn run(&mut self, queries: &[SpatialQuery]) {
        for q in queries {
            let a = self.direct.execute(q);
            self.delta.clear();
            let b = self
                .two_phase
                .query_recorded_with(q, &mut self.delta, &mut self.scratch);
            self.touched.extend(self.delta.touched_slots());
            self.two_phase.apply_stats(&self.delta);
            assert_eq!(
                a.matches,
                self.scratch.matches(),
                "two-phase matches on {q:?}"
            );
            assert_eq!(a.metrics.stats, b.stats, "two-phase AccessStats on {q:?}");
            let answer = self.model.execute(q);
            assert_same_answer(&a.matches, &a.metrics, &answer, &format!("{q:?}"));
        }
        self.assert_same_state();
    }

    /// An explicit pass on both and the model: the same report.
    fn reorganize(&mut self) -> ReorgReport {
        let [a, b] = self.each().map(|index| index.reorganize());
        assert_eq!(a, b, "two-phase ReorgReport");
        assert_eq!(a, self.model.reorganize(), "the model's ReorgReport");
        self.assert_same_state();
        a
    }

    /// Checkpoints are byte-deterministic and carry every counter of
    /// every cluster and candidate, so equal bytes are equal state; and
    /// that state is the model's.
    fn assert_same_state(&self) {
        assert!(
            checkpoint_bytes(&self.direct) == checkpoint_bytes(&self.two_phase),
            "two-phase checkpoint differs"
        );
        assert_eq!(self.direct.snapshots(), self.two_phase.snapshots());
        assert_eq!(
            self.direct.reorganizations(),
            self.two_phase.reorganizations()
        );
        assert_same(&self.direct, &self.model, "two paths");
    }
}

/// Point queries inside `[lo, lo + 0.25]` of every dimension.
fn corner_points(rng: &mut StdRng, dims: usize, lo: f32, n: usize) -> Vec<SpatialQuery> {
    (0..n)
        .map(|_| {
            SpatialQuery::point_enclosing(
                (0..dims)
                    .map(|_| lo + rng.gen_range(0..=8) as f32 / 32.0)
                    .collect(),
            )
        })
        .collect()
}

/// `execute` ≡ `query_recorded_with` + `apply_stats`, with automatic
/// passes (`period > 0`: fired from inside `apply_stats`) or explicit
/// ones (`period == 0`: reports compared).
fn assert_paths_equivalent(period: u64) {
    let dims = 3;
    let mut config = paper(dims);
    config.reorg_period = period;
    let mut duo = Duo::new(config);
    let mut rng = StdRng::seed_from_u64(0x51D + period);
    for i in 0..600u32 {
        duo.insert(i, &random_grid_rect(&mut rng, dims, 8));
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
        (0..40).map(|_| random_grid_query(rng, dims, 8)).collect()
    };

    // Shape a tree around the low corner.
    let mut changed = false;
    for _ in 0..4 {
        let mut queries = corner_points(&mut rng, dims, 0.0, 30);
        queries.extend(mixed(&mut rng));
        changed |= epoch(&mut duo, &queries).changed();
    }
    assert!(
        duo.direct.cluster_count() > 1,
        "test premise: clusters materialized"
    );
    assert!(
        period > 0 || changed,
        "test premise: a pass changed the clustering"
    );

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
        let mut scratch = QueryScratch::new();
        for (index, delta) in duo.each().into_iter().zip(&mut stale) {
            for q in &stale_queries {
                index.query_recorded_with(q, delta, &mut scratch);
            }
        }
        let stale_answers: Vec<Answer> = stale_queries.iter().map(|q| duo.model.query(q)).collect();
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
        assert!(
            restructured,
            "test premise: the clustering changed under the deltas"
        );
        let total = duo.direct.total_queries();
        let before = duo.direct.snapshots();
        for (index, delta) in duo.each().into_iter().zip(&stale) {
            index.apply_stats(delta);
        }
        duo.model.count_stale(&stale_answers);
        duo.assert_same_state();
        assert_eq!(
            duo.direct.total_queries(),
            total + stale_queries.len() as u64
        );
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
    assert_paths_equivalent(0);
}

#[test]
fn both_paths_leave_identical_state_with_automatic_passes() {
    assert_paths_equivalent(35);
}

#[test]
fn read_only_paths_agree_with_execute() {
    let dims = 3;
    let (mut index, mut model) = pair(paper(dims));
    let mut rng = StdRng::seed_from_u64(0x0A11);
    for i in 0..400u32 {
        let rect = random_grid_rect(&mut rng, dims, 8);
        index.insert(ObjectId(i), rect.clone()).unwrap();
        model.insert(ObjectId(i), rect).unwrap();
    }
    for _ in 0..120 {
        let q = random_grid_query(&mut rng, dims, 8);
        index.execute(&q);
        model.execute(&q);
    }
    let mut scratch = QueryScratch::new();
    for k in 0..30 {
        let q = random_grid_query(&mut rng, dims, 8);
        let read_only = index.query(&q);
        let answer = model.query(&q);
        assert_same_answer(
            &read_only.matches,
            &read_only.metrics,
            &answer,
            &format!("{k}"),
        );
        let metrics = index.query_with(&q, &mut scratch);
        assert_eq!(read_only.matches, scratch.matches());
        assert_eq!(read_only.metrics.stats, metrics.stats);
        // The scratch carries the explored slots from one entry point
        // to the next: a recorded query through it records what this
        // query explored, not what an earlier one did.
        let mut delta = StatsDelta::new();
        let recorded = index.query_recorded_with(&q, &mut delta, &mut scratch);
        assert_eq!(read_only.matches, scratch.matches());
        assert_eq!(read_only.metrics.stats, recorded.stats);
        assert_eq!(touched(&delta), explored(&[answer]), "query {k}");
        let executed = index.execute(&q);
        model.execute(&q);
        assert_eq!(executed.matches, read_only.matches);
        assert_eq!(executed.metrics.stats, read_only.metrics.stats);
    }
    assert_same(&index, &model, "after the read-only queries");
}

#[test]
fn boundary_coincident_edges_agree() {
    // Objects whose edges coincide exactly with the query window edges
    // in every combination, including degenerate (zero-width) intervals.
    let dims = 2;
    let (mut index, mut model) = pair(paper(dims));
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
                    index.insert(ObjectId(id), rect.clone()).unwrap();
                    model.insert(ObjectId(id), rect).unwrap();
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
        let a = index.execute(q);
        let b = model.execute(q);
        assert_same_answer(&a.matches, &a.metrics, &b, &format!("{q:?}"));
        assert!(
            !a.matches.is_empty(),
            "boundary query should match something"
        );
    }
    assert_same(&index, &model, "boundary queries");
}

proptest! {
    /// Random workloads in 1–8 dimensions, all query kinds, with
    /// boundary-coincident edges (grid-snapped coordinates): the index
    /// and the model answer every query alike, a recorded delta touches
    /// the clusters the model explores, and the clustering state is the
    /// same after the stream.
    #[test]
    fn prop_columnar_equals_oracle(
        dims in 1usize..=8,
        n_objects in 1usize..140,
        n_queries in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let mut config = paper(dims);
        config.reorg_period = 25;
        let (mut index, mut model) = pair(config);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n_objects {
            let rect = random_grid_rect(&mut rng, dims, 6);
            index.insert(ObjectId(i as u32), rect.clone()).unwrap();
            model.insert(ObjectId(i as u32), rect).unwrap();
        }
        for _ in 0..n_queries {
            let q = random_grid_query(&mut rng, dims, 6);
            // Record the query read-only first. (A fresh delta per
            // query, so an `execute`-triggered reorganization between
            // queries never strands an epoch.)
            let (mut delta, mut scratch) = (StatsDelta::new(), QueryScratch::new());
            index.query_recorded_with(&q, &mut delta, &mut scratch);
            let answer = model.query(&q);
            prop_assert_eq!(sorted(scratch.matches().to_vec()), answer.matches.clone());
            prop_assert_eq!(touched(&delta), explored(&[answer]));
            let a = index.execute(&q);
            let b = model.execute(&q);
            prop_assert_eq!(sorted(a.matches), b.matches);
            prop_assert_eq!(a.metrics.stats, b.stats);
        }
        if let Err(why) = acx_testkit::model::check(&index, &model) {
            return Err(TestCaseError::fail(why));
        }
    }
}
