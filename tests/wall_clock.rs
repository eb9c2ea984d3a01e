//! The paper's headline claim on the wall clock, under the measured
//! profile ([`IndexConfig::memory`]): never worse than a sequential
//! scan. `tests/paper_claims.rs` checks it in the cost model's own
//! units on the paper's platform; these check it in time.
//!
//! Timed, so `#[ignore]`d: debug tier-1 never times anything. CI runs
//! them optimized with `cargo test --release -- --ignored`.

use std::time::Instant;

use acx::prelude::*;
use acx::workloads::{calibrate, PubSubGenerator};
use acx_geom::scan::ScanScratch;
use rand::{Rng, SeedableRng};

fn median(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// Median nanoseconds of `execute` on the index and of `execute_with`
/// on the scan, alternating per query so that a slow spell of the host
/// falls on both alike. Asserts the two answer alike on the way.
fn interleaved_medians(
    index: &mut AdaptiveClusterIndex,
    scan: &SeqScan,
    queries: &[SpatialQuery],
) -> (u64, u64) {
    let mut scratch = ScanScratch::new();
    let (mut index_ns, mut scan_ns) = (Vec::new(), Vec::new());
    for q in queries {
        let started = Instant::now();
        let mut by_index = index.execute(q).matches;
        index_ns.push(started.elapsed().as_nanos() as u64);
        let started = Instant::now();
        let mut by_scan = scan.execute_with(q, &mut scratch).matches;
        scan_ns.push(started.elapsed().as_nanos() as u64);
        by_index.sort_unstable();
        by_scan.sort_unstable();
        assert_eq!(by_index, by_scan);
    }
    (median(index_ns), median(scan_ns))
}

fn build(config: IndexConfig, objects: &[HyperRect]) -> (AdaptiveClusterIndex, SeqScan) {
    let mut scan = SeqScan::new(config.dims, StorageScenario::Memory);
    let mut index = AdaptiveClusterIndex::new(config).unwrap();
    for (i, rect) in objects.iter().enumerate() {
        index.insert(ObjectId(i as u32), rect.clone()).unwrap();
        scan.insert(ObjectId(i as u32), rect);
    }
    (index, scan)
}

/// 20 000 uniform 16-d objects and windows of 1 % selectivity.
fn uniform_16d() -> (Vec<HyperRect>, Vec<SpatialQuery>) {
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(16, 20_000, 0xF100), 0.5);
    let extent = calibrate::uniform_query_extent(&workload, 1e-2, 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF101);
    let queries = (0..1_400)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
        .collect();
    (workload.generate_objects(), queries)
}

/// The floor under everything else: an index that never reorganizes is
/// one cluster, and exploring it is a sequential scan plus what every
/// call pays whatever the clustering (the root's candidate recording,
/// the statistics epilogue, the result vector). That fixed cost is
/// pinned before clustering is judged.
#[test]
#[ignore = "timed; run with --release"]
fn a_root_only_index_stays_within_a_quarter_of_the_scan() {
    let (objects, queries) = uniform_16d();
    let config = IndexConfig {
        reorg_period: 0,
        ..IndexConfig::memory(16)
    };
    let (mut index, scan) = build(config, &objects);
    let (index_ns, scan_ns) = interleaved_medians(&mut index, &scan, &queries[..400]);
    assert_eq!(index.cluster_count(), 1);
    println!("root-only index {index_ns} ns, SeqScan {scan_ns} ns per query (medians)");
    assert!(
        index_ns as f64 <= 1.25 * scan_ns as f64,
        "root-only index {index_ns} ns vs SeqScan {scan_ns} ns"
    );
}

/// The timed twin of `ac_beats_seqscan_on_selective_queries_in_both_scenarios`:
/// after a warm-up that lets it cluster, the index's median query is no
/// slower than the scan's on a skewed stream (a hotspot of selective
/// windows), and takes at most three quarters of it on a
/// publish/subscribe stream (point events over subscriptions, where
/// members kept in key order let most kernel blocks die in dimension
/// 0), 20 000 objects each.
#[test]
#[ignore = "timed; run with --release"]
fn the_clustered_index_is_no_slower_than_the_scan() {
    let skewed = {
        let workload =
            UniformWorkload::with_max_length(WorkloadConfig::new(8, 20_000, 0x5CE0), 0.3);
        let extent = calibrate::uniform_query_extent(&workload, 1e-3, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CE1);
        // Windows that start in the lowest 30 % of every dimension.
        let queries: Vec<SpatialQuery> = (0..2_000)
            .map(|_| {
                let lo: Vec<Scalar> = (0..8).map(|_| rng.gen_range(0.0..=0.3)).collect();
                let hi: Vec<Scalar> = lo.iter().map(|l| l + extent).collect();
                SpatialQuery::intersection(HyperRect::from_bounds(&lo, &hi).unwrap())
            })
            .collect();
        ("skewed", 1.0, workload.generate_objects(), queries)
    };
    let pubsub = {
        let generator = PubSubGenerator::apartments();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9B5B);
        let objects = (0..20_000)
            .map(|i| generator.subscription(i, &mut rng).ranges)
            .collect();
        let queries = EventStream::with_flexibility(generator, 0x9B5C, 0.02).next_batch(2_000);
        ("pub/sub", 0.75, objects, queries)
    };
    for (name, of_the_scan, objects, queries) in [skewed, pubsub] {
        let dims = objects[0].dims();
        let (mut index, scan) = build(IndexConfig::memory(dims), &objects);
        let (warmup, measured) = queries.split_at(1_500);
        for q in warmup {
            index.execute(q);
        }
        let (index_ns, scan_ns) = interleaved_medians(&mut index, &scan, measured);
        println!(
            "{name}: index {index_ns} ns ({} clusters), SeqScan {scan_ns} ns per query (medians)",
            index.cluster_count()
        );
        assert!(
            index.total_splits() > 0,
            "{name}: the measured profile must cluster"
        );
        assert!(
            index_ns as f64 <= of_the_scan * scan_ns as f64,
            "{name}: index {index_ns} ns vs SeqScan {scan_ns} ns, bound {of_the_scan}"
        );
    }
}
