//! Scenario-zoo equivalence: every zoo stream, built through the same
//! [`build_ac_with`] path the experiment binaries use, runs green on the
//! index and leaves the trace the paper's model (`acx_testkit::model`)
//! leaves on the same stream — per query the match set, the
//! `AccessStats` and the clusters a recorded `StatsDelta` touched; per
//! pass the `ReorgReport`; at the end the `ClusterSnapshot`s and every
//! counter.
//!
//! The same traces must come out whichever recording path carries the
//! stream ([`Recorder`]): `execute` writing the candidate sets in place,
//! or `query_recorded_with` + `apply_stats`.
//!
//! The streams run on the paper's platform: at 500 objects it is
//! Table 2 that materializes clusters, and every scenario must
//! (`run_stream` asserts splits), or the traces would agree about a
//! root that never moved.

use acx_bench::build_ac_with;
use acx_core::{
    AdaptiveClusterIndex, ClusterSnapshot, IndexConfig, QueryScratch, ReorgReport, StatsDelta,
};
use acx_geom::{HyperRect, ObjectId};
use acx_storage::{AccessStats, StorageScenario};
use acx_testkit::model::{check, Model};
use acx_testkit::sorted;
use acx_workloads::{
    AdaptiveScenario, ClusteredObjects, DiurnalCycle, FlashCrowd, MigratingHotspot, MixedTraffic,
    OscillatingHeat, UniformWorkload, WorkloadConfig,
};

const DIMS: usize = 4;
const OBJECTS: usize = 500;
const PERIODS: usize = 4;
const QUERIES_PER_PERIOD: usize = 45;
const SHIFT_AT: usize = 2;

/// The scenario zoo. `clustered_migrating` pairs the migrating-hotspot
/// stream with the clustered/correlated object population instead of
/// the uniform one.
const SCENARIOS: [&str; 6] = [
    "migrating_hotspot",
    "diurnal_cycle",
    "flash_crowd",
    "oscillating_heat",
    "mixed_traffic",
    "clustered_migrating",
];

/// Builds the named zoo scenario over `cfg` (seed-deterministic).
///
/// # Panics
///
/// Panics on a name outside [`SCENARIOS`].
fn make_scenario(name: &str, cfg: &WorkloadConfig) -> Box<dyn AdaptiveScenario> {
    match name {
        "migrating_hotspot" | "clustered_migrating" => {
            Box::new(MigratingHotspot::new(cfg, 2e-3, 0.35, 0.08))
        }
        "diurnal_cycle" => Box::new(DiurnalCycle::new(cfg, 600, 0.3, 0.08)),
        "flash_crowd" => Box::new(FlashCrowd::new(cfg, 700, 300, 0.25, 0.06)),
        "oscillating_heat" => Box::new(OscillatingHeat::new(cfg, 300, 0.3, 0.08)),
        "mixed_traffic" => Box::new(MixedTraffic::new(cfg, 800, 0.35, 0.08)),
        other => panic!("unknown scenario {other:?}"),
    }
}

/// Generates the named scenario's object population: clustered for
/// `clustered_migrating`, the uniform workload otherwise.
fn make_objects(name: &str, cfg: &WorkloadConfig) -> Vec<HyperRect> {
    if name == "clustered_migrating" {
        ClusteredObjects::new(cfg.clone(), 8, 0.08, 0.15).generate_objects()
    } else {
        UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects()
    }
}

/// Everything observable about one replay of a scenario stream.
struct Trace {
    /// Per query: matches in exploration order, access counters, and the
    /// delta a read-only recording of the query produced just before.
    queries: Vec<(Vec<ObjectId>, AccessStats, StatsDelta)>,
    /// Per period: the explicit reorganization pass's report.
    passes: Vec<ReorgReport>,
    /// The clustering the stream left behind.
    snapshots: Vec<ClusterSnapshot>,
}

/// The path a stream's statistics take into the index.
#[derive(Clone, Copy, Debug)]
enum Recorder {
    /// `execute`: the candidate sets, in place.
    Direct,
    /// `query_recorded_with` into a delta, then `apply_stats`.
    TwoPhase,
}

/// The configuration every zoo stream runs on: the paper's platform.
fn config() -> IndexConfig {
    IndexConfig::edbt2004(DIMS, StorageScenario::Memory)
}

/// Replays the scenario stream (with its mid-run shift) against an
/// index, its statistics going through `recorder`; returns the trace and
/// the index the stream left.
fn run_stream(name: &str, recorder: Recorder) -> (Trace, AdaptiveClusterIndex) {
    let cfg = WorkloadConfig::new(DIMS, OBJECTS, 0xA11CE);
    let objects = make_objects(name, &cfg);
    let mut scenario = make_scenario(name, &cfg);
    let mut index = build_ac_with(config(), &objects);
    let mut queries = Vec::with_capacity(PERIODS * QUERIES_PER_PERIOD);
    let mut passes = Vec::with_capacity(PERIODS);
    for period in 0..PERIODS {
        if period == SHIFT_AT {
            scenario.shift();
        }
        for _ in 0..QUERIES_PER_PERIOD {
            let q = scenario.next_query();
            // A fresh delta per query, recorded read-only just before
            // the query counts.
            let mut delta = StatsDelta::new();
            let mut scratch = QueryScratch::new();
            let recorded = index.query_recorded_with(&q, &mut delta, &mut scratch);
            let (matches, stats) = match recorder {
                Recorder::Direct => {
                    let r = index.execute(&q);
                    (r.matches, r.metrics.stats)
                }
                Recorder::TwoPhase => {
                    index.apply_stats(&delta);
                    (scratch.matches().to_vec(), recorded.stats)
                }
            };
            queries.push((matches, stats, delta));
        }
        passes.push(index.reorganize());
    }
    index.check_invariants().unwrap();
    assert!(
        index.total_splits() > 0,
        "{name}: the stream must materialize clusters to compare anything"
    );
    let trace = Trace {
        queries,
        passes,
        snapshots: index.snapshots(),
    };
    (trace, index)
}

fn assert_same_trace(what: &str, a: &Trace, b: &Trace) {
    assert_eq!(a.queries.len(), b.queries.len());
    for (k, (p, r)) in a.queries.iter().zip(&b.queries).enumerate() {
        assert_eq!(p.0, r.0, "{what}: query {k} matches (ordered)");
        assert_eq!(p.1, r.1, "{what}: query {k} AccessStats");
        assert_eq!(p.2, r.2, "{what}: query {k} recorded StatsDelta");
    }
    assert_eq!(a.passes, b.passes, "{what}: ReorgReports");
    assert_eq!(a.snapshots, b.snapshots, "{what}: snapshots");
}

/// Every zoo scenario on the index and on the model: the index runs
/// green and leaves the model's trace and state.
#[test]
fn zoo_is_green_and_answer_identical_to_the_model() {
    for name in SCENARIOS {
        let (trace, index) = run_stream(name, Recorder::Direct);
        let cfg = WorkloadConfig::new(DIMS, OBJECTS, 0xA11CE);
        let mut scenario = make_scenario(name, &cfg);
        let mut model = Model::new(config());
        for (i, rect) in make_objects(name, &cfg).into_iter().enumerate() {
            model.insert(ObjectId(i as u32), rect).unwrap();
        }
        let mut queries = trace.queries.iter().enumerate();
        for period in 0..PERIODS {
            if period == SHIFT_AT {
                scenario.shift();
            }
            for _ in 0..QUERIES_PER_PERIOD {
                let answer = model.execute(&scenario.next_query());
                let (k, (matches, stats, delta)) = queries.next().unwrap();
                assert_eq!(
                    sorted(matches.clone()),
                    answer.matches,
                    "{name}: query {k} matches"
                );
                assert_eq!(*stats, answer.stats, "{name}: query {k} AccessStats");
                let mut touched = delta.touched_slots().to_vec();
                touched.sort_unstable();
                let mut explored = answer.explored.clone();
                explored.sort_unstable();
                assert_eq!(touched, explored, "{name}: query {k} recorded clusters");
            }
            let report = model.reorganize();
            assert_eq!(trace.passes[period], report, "{name}: pass {period}");
        }
        assert_eq!(trace.snapshots, model.snapshots(), "{name}: snapshots");
        if let Err(why) = check(&index, &model) {
            panic!("{name}: the index and the model differ: {why}");
        }
    }
}

/// Every zoo scenario through both recording paths: `execute` ≡
/// `query_recorded_with` + `apply_stats`.
#[test]
fn zoo_traces_are_identical_across_recording_paths() {
    for name in SCENARIOS {
        let (direct, _) = run_stream(name, Recorder::Direct);
        let (two_phase, _) = run_stream(name, Recorder::TwoPhase);
        assert_same_trace(&format!("{name} via TwoPhase"), &direct, &two_phase);
    }
}

#[test]
fn zoo_factories_cover_every_name() {
    let cfg = WorkloadConfig::new(4, 64, 7);
    for name in SCENARIOS {
        let mut s = make_scenario(name, &cfg);
        assert_eq!(s.dims(), 4);
        let _ = s.next_query();
        assert!(!make_objects(name, &cfg).is_empty());
    }
}

#[test]
#[should_panic(expected = "unknown scenario")]
fn unknown_scenario_panics() {
    make_scenario("definitely_not_a_scenario", &WorkloadConfig::new(2, 8, 1));
}
