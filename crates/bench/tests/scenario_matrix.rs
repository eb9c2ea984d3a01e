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
//!
//! The same traces must come out whichever statistics sink carries the
//! stream ([`Sink`]): `execute` writing the arena in place,
//! `query_recorded` + `apply_stats`, or `execute_batch`.
//!
//! Both sides come from [`strategies`], which pins the paper's
//! platform: at 500 objects it is Table 2 that materializes clusters,
//! and every scenario must (`run_stream` asserts splits), or the
//! traces would agree about a root that never moved.

use acx_bench::adaptivity::{make_objects, make_scenario, SCENARIOS};
use acx_bench::args::Flags;
use acx_bench::{build_ac_with, strategies};
use acx_core::{AdaptiveClusterIndex, ClusterSnapshot, IndexConfig, ReorgReport, StatsDelta};
use acx_geom::{ObjectId, SpatialQuery};
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

/// The path a stream's statistics take into the index.
#[derive(Clone, Copy, Debug)]
enum Sink {
    /// `execute`: the arena, in place.
    Direct,
    /// `query_recorded` into a delta, then `apply_stats`.
    TwoPhase,
    /// `execute_batch` over a period's queries with this many threads.
    Batch(usize),
}

/// Replays the scenario stream (with its mid-run shift) against an
/// index built from `config`, its statistics going through `sink`.
fn run_stream(name: &str, config: IndexConfig, sink: Sink) -> Trace {
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
        let period_queries: Vec<_> = (0..QUERIES_PER_PERIOD)
            .map(|_| scenario.next_query())
            .collect();
        // A fresh delta per query, recorded read-only just before the
        // query counts (or, for a batch, before the batch: the
        // clustering only changes at the explicit pass below).
        let record = |index: &AdaptiveClusterIndex, q: &SpatialQuery| {
            let mut delta = StatsDelta::new();
            let r = index.query_recorded(q, &mut delta);
            (r, delta)
        };
        match sink {
            Sink::Direct => {
                for q in &period_queries {
                    let (_, delta) = record(&index, q);
                    let r = index.execute(q);
                    queries.push((r.matches, r.metrics.stats, delta));
                }
            }
            Sink::TwoPhase => {
                for q in &period_queries {
                    let (r, delta) = record(&index, q);
                    index.apply_stats(&delta);
                    queries.push((r.matches, r.metrics.stats, delta));
                }
            }
            Sink::Batch(threads) => {
                let deltas: Vec<_> = period_queries.iter().map(|q| record(&index, q).1).collect();
                let results = index.execute_batch(&period_queries, threads);
                for (r, delta) in results.into_iter().zip(deltas) {
                    queries.push((r.matches, r.metrics.stats, delta));
                }
            }
        }
        passes.push(index.reorganize());
    }
    index.check_invariants().unwrap();
    assert!(
        index.total_splits() > 0,
        "{name}: the stream must materialize clusters to compare anything"
    );
    Trace {
        queries,
        passes,
        snapshots: index.snapshots(),
    }
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

/// The production configuration of [`strategies`].
fn production_config() -> IndexConfig {
    let [(_, production), _] = strategies(DIMS);
    production
}

/// Every zoo scenario on both sides of [`IndexConfig::reference`]: both
/// run green and leave the exact same trace.
#[test]
fn zoo_is_green_and_answer_identical_across_strategy_matrix() {
    for name in SCENARIOS {
        let [production, reference] =
            strategies(DIMS).map(|(_, config)| run_stream(name, config, Sink::Direct));
        assert_same_trace(name, &production, &reference);
    }
}

/// Every zoo scenario through each statistics sink, on both sides of
/// [`IndexConfig::reference`]: `execute` ≡ `query_recorded` +
/// `apply_stats` ≡ `execute_batch(…, 1 | 4)`.
#[test]
fn zoo_traces_are_identical_across_statistics_sinks() {
    for name in SCENARIOS {
        for (_, config) in strategies(DIMS) {
            let direct = run_stream(name, config.clone(), Sink::Direct);
            for sink in [Sink::TwoPhase, Sink::Batch(1), Sink::Batch(4)] {
                let other = run_stream(name, config.clone(), sink);
                let what = format!("{name} (reference: {}) via {sink:?}", config.reference);
                assert_same_trace(&what, &direct, &other);
            }
        }
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
        let baseline = run_stream(name, production_config(), Sink::Direct);
        let mut config = production_config();
        config.merge_cooldown = flags.merge_cooldown();
        let cooled = run_stream(name, config, Sink::Direct);
        assert_eq!(
            sorted_matches(baseline),
            sorted_matches(cooled),
            "{name}: cool-down changed query answers"
        );
    }
}
