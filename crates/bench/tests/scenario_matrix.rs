//! Scenario-zoo equivalence: every zoo stream, built through the same
//! [`build_ac_with`] path the experiment binaries use, runs green on the
//! production index and on the reference
//! ([`IndexConfig::reference`]) and leaves bit-identical traces — per
//! query the ordered match set, the `AccessStats` and the recorded
//! `StatsDelta`; per pass the `ReorgReport`; at the end the
//! `ClusterSnapshot`s.
//!
//! `reference` selects an *execution strategy*: a stream that answers
//! or reorganizes differently on one side would invalidate every
//! reference row the bench binaries print.

use acx_bench::adaptivity::{make_objects, make_scenario, SCENARIOS};
use acx_bench::args::Flags;
use acx_bench::build_ac_with;
use acx_core::{ClusterSnapshot, IndexConfig, ReorgReport, StatsDelta};
use acx_geom::ObjectId;
use acx_storage::AccessStats;
use acx_workloads::WorkloadConfig;

const DIMS: usize = 4;
const OBJECTS: usize = 500;
const PERIODS: usize = 4;
const QUERIES_PER_PERIOD: usize = 45;
const SHIFT_AT: usize = 2;

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

/// Replays the scenario stream (with its mid-run shift) against an
/// index built from `config`.
fn run_stream(name: &str, config: IndexConfig) -> Trace {
    let cfg = WorkloadConfig::new(DIMS, OBJECTS, 0xA11CE);
    let objects = make_objects(name, &cfg);
    let mut scenario = make_scenario(name, &cfg);
    let mut index = build_ac_with(config, &objects);
    let mut queries = Vec::with_capacity(PERIODS * QUERIES_PER_PERIOD);
    let mut passes = Vec::with_capacity(PERIODS);
    for period in 0..PERIODS {
        if period == SHIFT_AT {
            scenario.shift();
        }
        for _ in 0..QUERIES_PER_PERIOD {
            let q = scenario.next_query();
            // A fresh delta per query, so an `execute`-triggered pass
            // between queries never strands an epoch.
            let mut delta = StatsDelta::new();
            index.query_recorded(&q, &mut delta);
            let r = index.execute(&q);
            queries.push((r.matches, r.metrics.stats, delta));
        }
        passes.push(index.reorganize());
    }
    index.check_invariants().unwrap();
    Trace {
        queries,
        passes,
        snapshots: index.snapshots(),
    }
}

/// Every zoo scenario on both sides of [`IndexConfig::reference`]: both
/// run green and leave the exact same trace.
#[test]
fn zoo_is_green_and_answer_identical_across_strategy_matrix() {
    for name in SCENARIOS {
        let production = run_stream(name, IndexConfig::memory(DIMS));
        let reference = run_stream(
            name,
            IndexConfig {
                reference: true,
                ..IndexConfig::memory(DIMS)
            },
        );
        assert_eq!(production.queries.len(), reference.queries.len());
        for (k, (p, r)) in production.queries.iter().zip(&reference.queries).enumerate() {
            assert_eq!(p.0, r.0, "{name}: query {k} matches (ordered)");
            assert_eq!(p.1, r.1, "{name}: query {k} AccessStats");
            assert_eq!(p.2, r.2, "{name}: query {k} recorded StatsDelta");
        }
        assert_eq!(production.passes, reference.passes, "{name}: ReorgReports");
        assert_eq!(production.snapshots, reference.snapshots, "{name}: snapshots");
    }
}

/// `--merge-cooldown` rides the CLI path (it changes reorganization
/// *decisions*, so it is a flag, not an execution strategy) and must
/// leave every scenario green and answer-identical: hysteresis defers
/// reclustering, it never changes which objects match.
#[test]
fn merge_cooldown_flag_keeps_zoo_green() {
    let flags = Flags::from_args(vec!["--merge-cooldown".into(), "6".into()]);
    assert_eq!(flags.merge_cooldown(), 6);
    flags.finish();
    let sorted_matches = |trace: Trace| -> Vec<Vec<ObjectId>> {
        trace
            .queries
            .into_iter()
            .map(|(mut matches, ..)| {
                matches.sort_unstable();
                matches
            })
            .collect()
    };
    for name in SCENARIOS {
        let baseline = run_stream(name, IndexConfig::memory(DIMS));
        let mut config = IndexConfig::memory(DIMS);
        config.merge_cooldown = flags.merge_cooldown();
        let cooled = run_stream(name, config);
        assert_eq!(
            sorted_matches(baseline),
            sorted_matches(cooled),
            "{name}: cool-down changed query answers"
        );
    }
}
