//! The reorganization pass must be **decision-identical** to the
//! paper's model (`acx_testkit::model`), which prices every candidate
//! of every cluster past the epoch gate from counts it recounts and
//! counters it decays eagerly: same [`ReorgReport`] from every pass,
//! same merges and materializations, bit-identical [`ClusterSnapshot`]s
//! and counters — across mutation/query interleavings, every query
//! kind, and streams that force both splits and merges. An index and
//! the model are driven through identical workloads and compared pass
//! by pass.
//!
//! The screen, the columnar split scan, the bulk member moves, the
//! freeing and regeneration of candidate sets and the lazy candidate
//! decay are all exercised here: the
//! index skips scans and leaves untouched counters un-decayed, yet
//! every observable decision must equal the model's, and every counter,
//! caught up, the model's eagerly decayed one.
//!
//! The streams here are a few hundred to a few thousand objects, where
//! it is the paper's platform that materializes clusters for the pass
//! to act on, so they pin it ([`paper`]); the measured profile, whose
//! move term the model prices alike, is compared at the scale it
//! clusters at by `measured_profile_is_decision_identical_at_scale`.
//!
//! [`ClusterSnapshot`]: acx_core::ClusterSnapshot

use acx_core::{
    AdaptiveClusterIndex, IndexConfig, QueryScratch, ReorgReport, Signature, StatsDelta,
};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::{FlushPolicy, WalRecord};
use acx_testkit::model::{assert_same, assert_same_answer, candidate_cells, check, Model};
use acx_testkit::{
    mem_wal, naive_matches, paper, random_grid_query, random_grid_rect, recover_log, sorted,
};
use acx_workloads::{
    AdaptiveScenario, ClusteredObjects, FlashCrowd, MigratingHotspot, MixedTraffic,
    OscillatingHeat, UniformWorkload, WorkloadConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An index and the model over the same configuration.
fn mode_pair(config: &IndexConfig) -> (AdaptiveClusterIndex, Model) {
    (
        AdaptiveClusterIndex::new(config.clone()).unwrap(),
        Model::new(config.clone()),
    )
}

/// Asserts every observable piece of adaptive state agrees, and that
/// the index passes its own consistency check.
fn assert_state_identical(index: &AdaptiveClusterIndex, model: &Model, context: &str) {
    assert_same(index, model, context);
    index.check_invariants().unwrap();
}

/// Drives the index and the model through one scenario-zoo query
/// stream (with its abrupt shift mid-way), comparing answers per query
/// and reports and full state per pass — the drifting/adversarial/mixed
/// analogue of `drive_and_compare`.
fn drive_scenario_pair(
    mut config: IndexConfig,
    mut scenario: Box<dyn AdaptiveScenario>,
    objects: Vec<HyperRect>,
    periods: usize,
    queries_per_period: usize,
    shift_at: usize,
) -> (u64, u64, u64) {
    config.reorg_period = 0; // explicit passes below
    let (mut index, mut model) = mode_pair(&config);
    for (i, rect) in objects.iter().enumerate() {
        index.insert(ObjectId(i as u32), rect.clone()).unwrap();
        model.insert(ObjectId(i as u32), rect.clone()).unwrap();
    }
    for period in 0..periods {
        if period == shift_at {
            scenario.shift();
        }
        for k in 0..queries_per_period {
            let q = scenario.next_query();
            let a = index.execute(&q);
            let b = model.execute(&q);
            assert_same_answer(
                &a.matches,
                &a.metrics,
                &b,
                &format!("period {period} query {k}"),
            );
        }
        let ra = index.reorganize();
        let rb = model.reorganize();
        assert_eq!(ra, rb, "period {period}: ReorgReport diverged");
        assert_state_identical(&index, &model, &format!("period {period}"));
    }
    (
        index.total_splits(),
        index.total_merges(),
        index.total_thrash(),
    )
}

/// Drives the index and the model through the same insert/query/mutate
/// stream with explicit reorganization passes, comparing the per-pass
/// reports and the full cluster state after every pass.
fn drive_and_compare(
    dims: usize,
    objects: usize,
    periods: usize,
    queries_per_period: usize,
    seed: u64,
) -> (u64, u64) {
    let mut config = paper(dims);
    config.reorg_period = 0; // explicit passes below
    let (mut index, mut model) = mode_pair(&config);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u32;
    for _ in 0..objects {
        let rect = random_grid_rect(&mut rng, dims, 8);
        index.insert(ObjectId(next_id), rect.clone()).unwrap();
        model.insert(ObjectId(next_id), rect).unwrap();
        next_id += 1;
    }

    for period in 0..periods {
        for k in 0..queries_per_period {
            // Interleave membership mutations with queries so the
            // passes see inserts, removals and updates mid-epoch.
            match rng.gen_range(0..10u32) {
                0 => {
                    let rect = random_grid_rect(&mut rng, dims, 8);
                    index.insert(ObjectId(next_id), rect.clone()).unwrap();
                    model.insert(ObjectId(next_id), rect).unwrap();
                    next_id += 1;
                }
                1 if next_id > 0 => {
                    let id = ObjectId(rng.gen_range(0..next_id));
                    let a = index.contains(id);
                    assert_eq!(a, model.contains(id));
                    if a {
                        let ra = index.remove(id).unwrap();
                        let rb = model.remove(id).unwrap();
                        assert_eq!(ra, rb, "period {period} op {k}: removed rect");
                    }
                }
                2 if next_id > 0 => {
                    let id = ObjectId(rng.gen_range(0..next_id));
                    if index.contains(id) {
                        let rect = random_grid_rect(&mut rng, dims, 8);
                        index.update(id, rect.clone()).unwrap();
                        model.update(id, rect).unwrap();
                    }
                }
                _ => {
                    let q = random_grid_query(&mut rng, dims, 8);
                    let a = index.execute(&q);
                    let b = model.execute(&q);
                    let context = format!("period {period} query {k}");
                    assert_same_answer(&a.matches, &a.metrics, &b, &context);
                }
            }
        }
        let ra = index.reorganize();
        let rb = model.reorganize();
        assert_eq!(ra, rb, "period {period}: ReorgReport diverged");
        assert_state_identical(&index, &model, &format!("period {period}"));
    }
    (index.total_splits(), index.total_merges())
}

#[test]
fn incremental_equals_full_low_dims() {
    let (splits, _) = drive_and_compare(2, 900, 8, 60, 0x1E01);
    assert!(
        splits > 0,
        "stream must force materializations to be meaningful"
    );
}

#[test]
fn incremental_equals_full_mid_dims() {
    let (splits, _) = drive_and_compare(5, 700, 7, 50, 0x1E05);
    assert!(
        splits > 0,
        "stream must force materializations to be meaningful"
    );
}

#[test]
fn incremental_equals_full_high_dims() {
    drive_and_compare(8, 600, 6, 45, 0x1E08);
}

/// A deterministic stream engineered to force splits *and* merges: a
/// hotspot workload materializes clusters around one corner of the
/// domain, then the hotspot moves away and the abandoned clusters merge
/// back — the full split/merge lifecycle, in the index and in the model.
#[test]
fn forced_splits_then_merges_are_identical() {
    let dims = 3;
    let mut config = paper(dims);
    config.reorg_period = 0;
    config.confidence_z = 0.0; // act on any positive benefit: maximal churn
    let (mut index, mut model) = mode_pair(&config);

    let mut rng = StdRng::seed_from_u64(0xF0CED);
    for i in 0..1200u32 {
        let rect = random_grid_rect(&mut rng, dims, 10);
        index.insert(ObjectId(i), rect.clone()).unwrap();
        model.insert(ObjectId(i), rect).unwrap();
    }

    let hotspot_phase = |lo: f32| {
        let mut qs = Vec::new();
        let mut prng = StdRng::seed_from_u64(lo.to_bits() as u64);
        for _ in 0..80 {
            let p: Vec<f32> = (0..dims)
                .map(|_| lo + prng.gen_range(0..=10) as f32 / 50.0)
                .collect();
            qs.push(SpatialQuery::point_enclosing(p));
        }
        qs
    };

    let mut total_merges = 0u64;
    let mut total_splits = 0u64;
    for (phase, lo) in [0.0f32, 0.0, 0.0, 0.8, 0.8, 0.8, 0.8]
        .into_iter()
        .enumerate()
    {
        for q in hotspot_phase(lo) {
            let a = index.execute(&q);
            let b = model.execute(&q);
            assert_eq!(sorted(a.matches), b.matches);
        }
        let ra = index.reorganize();
        let rb = model.reorganize();
        assert_eq!(ra, rb, "phase {phase}: ReorgReport diverged");
        total_merges += ra.merges;
        total_splits += ra.splits;
        assert_state_identical(&index, &model, &format!("phase {phase}"));
    }
    assert!(total_splits > 0, "hotspot phases must materialize clusters");
    assert!(
        total_merges > 0,
        "the moved hotspot must merge old clusters back"
    );
}

/// The screen must actually skip work while staying decision-identical:
/// on a skewed stream, the pass screens out a majority of
/// its evaluated clusters (otherwise it silently degenerated into
/// scanning everything and the equivalence above proves nothing about
/// skipping).
/// The slot of candidate `(d, i, j)` among those `signature` generates.
fn candidate_of(signature: &Signature, f: u8, (d, i, j): (usize, u8, u8)) -> u32 {
    candidate_cells(signature, f)
        .iter()
        .position(|&cell| cell == (d, i, j))
        .expect("a feasible candidate") as u32
}

/// Materializations in a different dimension at each level down to
/// depth 4, then merges of the two middle levels: the merges reparent
/// grandchildren and great-grandchildren whose signatures differ from
/// their new parent in up to three dimensions, which is all that either
/// descent then tests them on. The structure is built by replaying a
/// log, the live split and merge code, and the model takes the same
/// steps. Placement of every later insert, the whole state and every
/// answer must agree with the model, and the answers with a scan.
#[test]
fn deep_reparenting_keeps_placement_and_answers() {
    let dims = 4;
    let config = IndexConfig {
        reorg_period: 0,
        ..paper(dims)
    };
    let f = config.division_factor;
    let mut rng = StdRng::seed_from_u64(0xDEE9);
    let objects: Vec<HyperRect> = (0..1200)
        .map(|_| random_grid_rect(&mut rng, dims, 16))
        .collect();
    let (settled, later) = objects.split_at(600);
    let mut model = Model::new(config.clone());
    let mut wal = mem_wal(dims, FlushPolicy::PerRecord);
    for (id, rect) in (0u32..).zip(settled) {
        model.insert(ObjectId(id), rect.clone()).unwrap();
        let coords = rect.to_flat();
        wal.append(&WalRecord::Insert { id, coords }).unwrap();
    }

    // (parent step, cell): step k makes slot k + 1 under the named one.
    let long = |d| (d, 0, f - 1);
    let steps: [(u32, (usize, u8, u8)); 7] = [
        (0, long(0)), // 1: depth 1
        (0, long(1)), // 2: depth 1, a sibling overlapping 1
        (1, long(1)), // 3: depth 2
        (1, long(2)), // 4: depth 2
        (3, long(2)), // 5: depth 3
        (3, long(3)), // 6: depth 3
        (5, long(3)), // 7: depth 4
    ];
    let mut signatures = vec![Signature::root(dims)];
    for (parent, cell) in steps {
        let signature = &signatures[parent as usize];
        let candidate = candidate_of(signature, f, cell);
        let record = WalRecord::Materialize {
            signature: signature.to_bytes(),
            candidate,
        };
        wal.append(&record).unwrap();
        let slot = model.replay_materialize(parent, candidate as usize);
        assert_eq!(slot as usize, signatures.len());
        signatures.push(signature.specialize(cell.0, f, cell.1, cell.2));
    }
    // The middle levels go: 5 and 6 move to 1, then 4, 5 and 6 to the
    // root, with 5 and 6 differing from it in three dimensions.
    for slot in [3u32, 1] {
        let signature = signatures[slot as usize].to_bytes();
        wal.append(&WalRecord::Merge { signature }).unwrap();
        model.replay_merge(slot);
    }
    let mut store = wal.into_store();
    let (mut index, _) = recover_log(store.read_durable().unwrap(), config).unwrap();

    let parents: Vec<_> = (index.snapshots().iter())
        .map(|s| (s.id, s.parent))
        .collect();
    for (slot, parent) in [(5, Some(0)), (6, Some(0)), (7, Some(5)), (4, Some(0))] {
        assert!(parents.contains(&(slot, parent)), "{parents:?}");
    }
    let differing = |a: &Signature, b: &Signature| {
        (a.dim_signatures().iter().zip(b.dim_signatures()))
            .filter(|(x, y)| x != y)
            .count()
    };
    assert_eq!(differing(&signatures[0], &signatures[5]), 3);
    assert_eq!(differing(&signatures[0], &signatures[6]), 3);
    index.check_invariants().unwrap();
    assert_same(&index, &model, "after the replayed merges");

    for (id, rect) in (600u32..).zip(later) {
        index.insert(ObjectId(id), rect.clone()).unwrap();
        model.insert(ObjectId(id), rect.clone()).unwrap();
    }
    assert_state_identical(&index, &model, "after the later inserts");
    let deep = (index.snapshots().iter())
        .filter(|s| [5, 6, 7].contains(&s.id))
        .map(|s| s.objects)
        .sum::<usize>();
    assert!(
        deep > 0,
        "test premise: inserts land in reparented clusters"
    );

    let everything = model.objects();
    for k in 0..400 {
        let q = random_grid_query(&mut rng, dims, 16);
        let got = index.query(&q);
        assert_same_answer(
            &got.matches,
            &got.metrics,
            &model.query(&q),
            &format!("query {k}"),
        );
        assert_eq!(
            sorted(got.matches),
            naive_matches(&everything, &q),
            "query {k}"
        );
    }
}

#[test]
fn screen_skips_scans_without_changing_decisions() {
    let dims = 6;
    let mut config = paper(dims);
    config.reorg_period = 0;
    let (mut index, mut model) = mode_pair(&config);
    let mut rng = StdRng::seed_from_u64(0x5C1);
    for i in 0..2000u32 {
        let rect = random_grid_rect(&mut rng, dims, 12);
        index.insert(ObjectId(i), rect.clone()).unwrap();
        model.insert(ObjectId(i), rect).unwrap();
    }
    let mut screened = 0u64;
    let mut evaluated = 0u64;
    for _ in 0..10 {
        for _ in 0..100 {
            let p: Vec<f32> = (0..dims)
                .map(|_| rng.gen_range(0..=5) as f32 / 25.0)
                .collect();
            let q = SpatialQuery::point_enclosing(p);
            assert_eq!(sorted(index.execute(&q).matches), model.execute(&q).matches);
        }
        assert_eq!(index.reorganize(), model.reorganize());
        let profile = index.last_reorg_profile();
        screened += profile.screened_out;
        evaluated += profile.evaluated;
    }
    assert_state_identical(&index, &model, "after skewed stream");
    assert!(
        evaluated > 0 && screened * 2 > evaluated,
        "screen skipped {screened}/{evaluated} scans — expected a majority on a skewed stream"
    );
}

/// A cluster whose signature *rejects* every query of the current
/// workload — both its start and end variation intervals specialized to
/// a region the queries left — goes completely untouched: its
/// candidate counters lag further behind the statistics epoch with
/// every pass the index screens it out of, while the model decays them
/// eagerly and prices them each time. Both must keep evaluating it,
/// leave it as it is, and stay decision-identical.
#[test]
fn abandoned_clusters_stay_decision_identical() {
    let dims = 2;
    let mut config = paper(dims);
    config.reorg_period = 0;
    config.confidence_z = 0.0;
    let (mut index, mut model) = mode_pair(&config);
    let mut rng = StdRng::seed_from_u64(0xABD0);
    // A large population of *identical* tight objects inside the low
    // corner: the materialized cluster specializes start *and* end low
    // (rejecting high-corner points), is far too big to merge back, and
    // — because every member sits in the same candidate cell at every
    // refinement level — its split cascade settles as soon as the
    // candidate is matched as often as the cluster itself, leaving one
    // big stable cluster that is scanned while warm.
    for i in 0..2000u32 {
        let rect = HyperRect::from_bounds(&[0.01; 2], &[0.03; 2]).unwrap();
        index.insert(ObjectId(i), rect.clone()).unwrap();
        model.insert(ObjectId(i), rect).unwrap();
    }
    for i in 2000..2300u32 {
        let rect = random_grid_rect(&mut rng, dims, 8);
        index.insert(ObjectId(i), rect.clone()).unwrap();
        model.insert(ObjectId(i), rect).unwrap();
    }
    let run_phase = |index: &mut AdaptiveClusterIndex,
                     model: &mut Model,
                     rng: &mut StdRng,
                     lo: f32,
                     passes: usize|
     -> ReorgReport {
        let mut last = ReorgReport::default();
        for _ in 0..passes {
            for _ in 0..60 {
                let p: Vec<f32> = (0..dims)
                    .map(|_| lo + rng.gen_range(0..=9) as f32 / 50.0)
                    .collect();
                let q = SpatialQuery::point_enclosing(p);
                assert_eq!(sorted(index.execute(&q).matches), model.execute(&q).matches);
            }
            last = index.reorganize();
            assert_eq!(last, model.reorganize());
            assert_state_identical(index, model, "phase pass");
        }
        last
    };
    // Phase A: high-corner points — the untouched low-corner candidate
    // is cold and huge, so it materializes as one big specialized
    // cluster.
    run_phase(&mut index, &mut model, &mut rng, 0.8, 2);
    assert!(
        index.total_splits() > 0,
        "phase A must materialize the cold corner"
    );
    // Phase B: low-corner points heat that cluster up — it fails the
    // screen, is scanned every pass, and its refinement cascade narrows
    // it down to the 2000 identical objects.
    run_phase(&mut index, &mut model, &mut rng, 0.0, 6);
    // Phase C: back to high-corner points; the first pass takes the
    // cascade's last step. From then on the low cluster's signature
    // rejects every query and it is far too big to merge: each pass
    // evaluates it with every other cluster, and neither splits it nor
    // merges it away, while the clusters around it keep changing.
    run_phase(&mut index, &mut model, &mut rng, 0.8, 1);
    let abandoned = |index: &AdaptiveClusterIndex| {
        let cluster = index
            .snapshots()
            .into_iter()
            .max_by_key(|c| c.objects)
            .unwrap();
        (
            cluster.signature,
            cluster.objects,
            cluster.access_probability,
        )
    };
    let before = abandoned(&index);
    assert_eq!(
        (before.1, before.2),
        (2000, 0.0),
        "test premise: one cluster is abandoned"
    );
    for pass in 0..3 {
        let report = run_phase(&mut index, &mut model, &mut rng, 0.8, 1);
        assert_eq!(
            index.last_reorg_profile().evaluated,
            report.clusters_before as u64,
            "pass {pass}: every cluster, the abandoned one included, is evaluated"
        );
        assert_eq!(
            abandoned(&index),
            before,
            "pass {pass}: the abandoned cluster changed"
        );
    }
}

/// Auto-triggered passes (reorg_period > 0) stay identical when the
/// index runs the two-phase path one query at a time: each pass then
/// fires from inside `apply_stats`, the model's from inside `execute`.
#[test]
fn auto_triggered_passes_and_batches_are_identical() {
    let dims = 4;
    let mut config = paper(dims);
    config.reorg_period = 40;
    let (mut index, mut model) = mode_pair(&config);
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for i in 0..800u32 {
        let rect = random_grid_rect(&mut rng, dims, 8);
        index.insert(ObjectId(i), rect.clone()).unwrap();
        model.insert(ObjectId(i), rect).unwrap();
    }
    let mut delta = StatsDelta::new();
    let mut scratch = QueryScratch::new();
    for k in 0..310 {
        let q = random_grid_query(&mut rng, dims, 8);
        delta.clear();
        let metrics = index.query_recorded_with(&q, &mut delta, &mut scratch);
        index.apply_stats(&delta);
        let r = model.execute(&q);
        assert_same_answer(scratch.matches(), &metrics, &r, &format!("query {k}"));
    }
    assert!(
        model.reorganizations() > 0,
        "stream must cross reorg boundaries"
    );
    assert_state_identical(&index, &model, "after two-phase stream");
}

/// Drifting hotspot: the query focus migrates every period, so new
/// regions keep materializing while abandoned ones merge back — the
/// screen's verdicts churn continuously.
#[test]
fn scenario_equivalence_migrating_hotspot() {
    let cfg = WorkloadConfig::new(5, 900, 0xD21F7);
    let objects = UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects();
    let scenario = Box::new(MigratingHotspot::new(&cfg, 8e-3, 0.35, 0.08));
    let (splits, ..) = drive_scenario_pair(paper(cfg.dims), scenario, objects, 8, 80, 4);
    assert!(splits > 0, "a hotspot stream must force materializations");
}

/// Flash crowd: a calm uniform stream punctuated by a concentrated
/// spike — the abrupt density change exercises the epoch gate and the
/// screen on suddenly-hot clusters.
#[test]
fn scenario_equivalence_flash_crowd() {
    let cfg = WorkloadConfig::new(4, 1000, 0xF1A58);
    let objects = UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects();
    let scenario = Box::new(FlashCrowd::new(&cfg, 150, 90, 0.25, 0.06));
    drive_scenario_pair(paper(cfg.dims), scenario, objects, 8, 80, 4);
}

/// Mixed query kinds over a drifting hotspot: mixed kinds move the
/// effective `C` (verify fraction) every pass, and each epoch fold
/// (`q_eff ← γ·q_eff + q_count`) shifts the candidate/cluster
/// probability ratios of the clusters with fresh traffic. The clustered
/// object population adds correlated density for the shift to abandon.
#[test]
fn scenario_equivalence_mixed_traffic_clustered() {
    let cfg = WorkloadConfig::new(5, 1100, 0x31BED);
    let objects = ClusteredObjects::new(cfg.clone(), 6, 0.08, 0.15).generate_objects();
    let scenario = Box::new(MixedTraffic::new(&cfg, 160, 0.35, 0.08));
    let (splits, ..) = drive_scenario_pair(paper(cfg.dims), scenario, objects, 10, 80, 5);
    assert!(splits > 0, "mixed traffic must force materializations");
}

/// The oscillating adversary: clusters built for one phase merge back
/// in the other and come back when the heat flips again, and the index
/// and the model make the same decisions and count the same thrash cycles.
#[test]
fn scenario_equivalence_oscillating_adversary() {
    let cfg = WorkloadConfig::new(3, 900, 0x05C11);
    let objects = UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects();
    let scenario = Box::new(OscillatingHeat::new(&cfg, 120, 0.3, 0.08));
    drive_scenario_pair(paper(cfg.dims), scenario, objects, 10, 60, 5);
}

/// The measured profile at the scale it clusters at: 20 000 clustered
/// 4-d objects under a hotspot that glides and, half-way, jumps. The
/// index prices the recording term in `B` and the move term `M` in
/// every margin, floor and screen verdict as the model prices them in
/// its margins — per-pass reports, snapshots and every counter are
/// equal, with splits and merges on the way.
#[test]
fn measured_profile_is_decision_identical_at_scale() {
    let cfg = WorkloadConfig::new(4, 20_000, 0x3EA5);
    let objects = ClusteredObjects::new(cfg.clone(), 8, 0.06, 0.05).generate_objects();
    let scenario = Box::new(MigratingHotspot::new(&cfg, 2e-3, 0.3, 0.04));
    let config = IndexConfig::memory(cfg.dims);
    assert!(
        config.profile.move_ms_per_object > 0.0 && config.profile.record_ms_per_candidate > 0.0
    );
    let (splits, merges, _) = drive_scenario_pair(config, scenario, objects, 8, 100, 4);
    assert!(splits > 0, "the measured profile must split at this scale");
    println!("measured profile, 20 000 objects: {splits} splits, {merges} merges");
}

/// The mixed-traffic stream at bench scale: the index against the
/// model over 60 passes of 20 000 8-d objects, the effective `C`
/// drifting every pass with the mix of query kinds. Runs in seconds
/// under `--release`, minutes in debug, hence `#[ignore]`d in tier-1:
/// `cargo test --release -p acx_core --test reorg_equivalence -- --ignored`
#[test]
#[ignore = "bench-scale; run explicitly with --release"]
fn scenario_equivalence_mixed_traffic_bench_scale() {
    let dims = 8;
    let obj_cfg = WorkloadConfig::new(dims, 20_000, 0x5EED);
    let qry_cfg = WorkloadConfig::new(dims, 20_000, 0x5EED ^ 0xF1E1D);
    let objects = UniformWorkload::with_max_length(obj_cfg, 0.4).generate_objects();
    let scenario = Box::new(MixedTraffic::new(&qry_cfg, 800, 0.35, 0.08));
    drive_scenario_pair(paper(dims), scenario, objects, 60, 100, 30);
}

proptest! {
    /// Random workloads in 1–8 dimensions, all query kinds, random
    /// mutation interleavings and period lengths: the index and the model
    /// report identical `ReorgReport`s and leave bit-identical
    /// clustering state, pass after pass.
    #[test]
    fn prop_incremental_equals_full(
        dims in 1usize..=8,
        n_objects in 1usize..160,
        periods in 1usize..6,
        queries_per_period in 1usize..35,
        seed in 0u64..1_000_000,
    ) {
        let mut config = paper(dims);
        config.reorg_period = 0;
        let (mut index, mut model) = mode_pair(&config);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next_id = 0u32;
        for _ in 0..n_objects {
            let rect = random_grid_rect(&mut rng, dims, 6);
            index.insert(ObjectId(next_id), rect.clone()).unwrap();
            model.insert(ObjectId(next_id), rect).unwrap();
            next_id += 1;
        }
        for _ in 0..periods {
            for _ in 0..queries_per_period {
                match rng.gen_range(0..8u32) {
                    0 => {
                        let rect = random_grid_rect(&mut rng, dims, 6);
                        index.insert(ObjectId(next_id), rect.clone()).unwrap();
                        model.insert(ObjectId(next_id), rect).unwrap();
                        next_id += 1;
                    }
                    1 if next_id > 0 => {
                        let id = ObjectId(rng.gen_range(0..next_id));
                        if index.contains(id) {
                            index.remove(id).unwrap();
                            model.remove(id).unwrap();
                        }
                    }
                    _ => {
                        let q = random_grid_query(&mut rng, dims, 6);
                        let a = index.execute(&q);
                        let b = model.execute(&q);
                        prop_assert_eq!(sorted(a.matches), b.matches);
                        prop_assert_eq!(a.metrics.stats, b.stats);
                    }
                }
            }
            let ra = index.reorganize();
            let rb = model.reorganize();
            prop_assert_eq!(ra, rb, "ReorgReport diverged");
            if let Err(why) = check(&index, &model) {
                return Err(TestCaseError::fail(why));
            }
        }
        index.check_invariants().unwrap();
    }
}
